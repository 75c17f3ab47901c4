package main

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/glift"
	"repro/internal/rv32"
	"repro/internal/service"
)

// jobSpec is one distinct gliftd input.
type jobSpec struct {
	class  string
	target string // "" is the default target, msp430
	source string
	policy service.PolicyRequest
	// repairCode, when non-nil, makes this a repair job with these
	// symbolic tainted-code ranges.
	repairCode []string
	// key identifies the input's content (program and policy semantics);
	// the generator never emits two inputs with one key.
	key string
}

func (j *jobSpec) request() *service.JobRequest {
	r := &service.JobRequest{Target: j.target, Source: j.source, Policy: j.policy}
	if j.repairCode != nil {
		r.Mode = "repair"
		r.Repair = &service.RepairRequest{TaintedCode: j.repairCode}
	}
	return r
}

// gliftPolicy is the engine policy the daemon compiles from the request.
func (j *jobSpec) gliftPolicy() glift.Policy {
	ranges := func(rs []service.RangeRequest) []glift.AddrRange {
		out := make([]glift.AddrRange, 0, len(rs))
		for _, r := range rs {
			out = append(out, glift.AddrRange{Lo: r.Lo, Hi: r.Hi})
		}
		return out
	}
	p := j.policy
	return glift.Policy{
		Name:                 p.Name,
		TaintedInPorts:       p.TaintedInPorts,
		TaintedOutPorts:      p.TaintedOutPorts,
		TaintedCode:          ranges(p.TaintedCode),
		TaintedData:          ranges(p.TaintedData),
		InitiallyTaintedData: ranges(p.InitiallyTaintedData),
		TaintCodeWords:       p.TaintCodeWords,
	}
}

// inputClasses is one round of the classes new inputs are drawn from.
var inputClasses = []string{"fig9", "fig9", "fig9-repair", "fig8", "table1", "rv32"}

// deck deals 0..n-1 in seeded shuffled rounds, so every n draws cover each
// value once. Dealing classes, shapes and programs from decks keeps the mix
// of a run the same for every seed; only the order and the drawn
// immediates and policy variants change.
type deck struct {
	n    int
	left []int
}

func (d *deck) draw(r *rand.Rand) int {
	if len(d.left) == 0 {
		d.left = r.Perm(d.n)
	}
	v := d.left[0]
	d.left = d.left[1:]
	return v
}

// partition is the tainted data partition of the micro-benchmark shapes.
var partition = service.RangeRequest{Lo: bench.PartLo, Hi: bench.PartLo + bench.PartSize}

// generator draws seeded distinct inputs.
type generator struct {
	rng *rand.Rand
	// table1 holds the verified Table 1 scaffold sources with their
	// tainted task ranges.
	table1 []table1Prog
	// spans caches the tstart/tend addresses of each micro shape (they do
	// not depend on the immediates drawn, which avoid the constant
	// generator's short encodings).
	spans map[string]service.RangeRequest
	seen  map[string]bool
	// Decks of classes, of the two shapes of the fig9 and fig8 classes,
	// and of the Table 1 and rv32 programs.
	classes, fig9, fig8, table1Progs, rv32Progs deck
}

type table1Prog struct {
	name, src string
	task      service.RangeRequest
}

func newGenerator(seed int64) (*generator, error) {
	g := &generator{
		rng:     rand.New(rand.NewPCG(uint64(seed), 0x676c69667464)),
		spans:   map[string]service.RangeRequest{},
		seen:    map[string]bool{},
		classes: deck{n: len(inputClasses)},
		fig9:    deck{n: 2},
		fig8:    deck{n: 2},
	}
	for _, b := range bench.All() {
		if b.ExpectC1C2 {
			continue
		}
		src := bench.Source(b)
		img, err := asm.AssembleSource(src)
		if err != nil {
			return nil, fmt.Errorf("assembling %s: %w", b.Name, err)
		}
		g.table1 = append(g.table1, table1Prog{
			name: b.Name, src: src,
			task: service.RangeRequest{Lo: img.MustSymbol("task_start"), Hi: img.MustSymbol("task_end")},
		})
	}
	g.table1Progs = deck{n: len(g.table1)}
	g.rv32Progs = deck{n: len(rv32.Benchmarks())}
	return g, nil
}

// taskRange returns the numeric tstart:tend range of a micro shape.
func (g *generator) taskRange(shape, src string) (service.RangeRequest, error) {
	if r, ok := g.spans[shape]; ok {
		return r, nil
	}
	img, err := asm.AssembleSource(src)
	if err != nil {
		return service.RangeRequest{}, fmt.Errorf("assembling the %s shape: %w", shape, err)
	}
	r := service.RangeRequest{Lo: img.MustSymbol("tstart"), Hi: img.MustSymbol("tend")}
	g.spans[shape] = r
	return r, nil
}

// next returns a new distinct input of the next class in the cycle.
func (g *generator) next() (*jobSpec, error) {
	class := inputClasses[g.classes.draw(g.rng)]
	for try := 0; try < 1000; try++ {
		j, err := g.draw(class)
		if err != nil {
			return nil, err
		}
		if !g.seen[j.key] {
			g.seen[j.key] = true
			return j, nil
		}
	}
	return nil, fmt.Errorf("no new %s input after 1000 draws", class)
}

// draw makes one seeded input of class.
func (g *generator) draw(class string) (*jobSpec, error) {
	r := g.rng
	switch class {
	case "fig9", "fig9-repair":
		// Figure 9: a tainted port value offsets a store address. The
		// analysis class also draws the masked (verifying) variant.
		base, val := 0x0100+2*r.IntN(0x80), 16+r.IntN(30000)
		masked := class == "fig9" && g.fig9.draw(r) == 0
		mask, shape := "", "fig9"
		if masked {
			mask, shape = "        and #0x03ff, r14\n        bis #0x0400, r14\n", "fig9-masked"
		}
		src := fmt.Sprintf("start:  jmp tstart\ntstart: mov &0x0020, r15\n        mov #%#04x, r14\n        add r15, r14\n%s        mov #%d, 0(r14)\ndone:   jmp done\ntend:   nop\n", base, mask, val)
		j := &jobSpec{class: class, source: src, policy: service.PolicyRequest{
			Name: shape, TaintedInPorts: []int{0}, TaintedData: []service.RangeRequest{partition},
		}}
		if class == "fig9-repair" {
			j.repairCode = []string{"tstart:tend"}
		} else {
			tr, err := g.taskRange(shape, src)
			if err != nil {
				return nil, err
			}
			j.policy.TaintedCode = []service.RangeRequest{tr}
		}
		j.key = fmt.Sprintf("%s/%#x/%d/%v", class, base, val, masked)
		return j, nil

	case "fig8":
		// Figure 8: a tainted task that loops back into untainted code
		// (violates condition 1), or one bounded by the watchdog timer.
		var src, shape string
		var key string
		words := false
		if g.fig8.draw(r) == 0 {
			reg, n := 4+r.IntN(10), 16+r.IntN(135)
			src = fmt.Sprintf("start:  nop\ntstart: mov #%d, r%d\nloop:   nop\n        dec r%d\n        jnz loop\n        jmp start\ntend:   nop\n", n, reg, reg)
			shape, key, words = "fig8", fmt.Sprintf("fig8/loop/r%d/%d", reg, n), true
		} else {
			m := 16 + r.IntN(4080)
			src = fmt.Sprintf(".equ WDTCTL, 0x0120\nstart:  mov #0x5a03, &WDTCTL\ntstart: mov &0x0020, r10\n        and #%d, r10\nloop:   nop\n        dec r10\n        jnz loop\nspin:   jmp spin\ntend:   nop\n", m)
			shape, key = "fig8-wdt", fmt.Sprintf("fig8/wdt/%d", m)
		}
		tr, err := g.taskRange(shape, src)
		if err != nil {
			return nil, err
		}
		return &jobSpec{class: class, source: src, key: key, policy: service.PolicyRequest{
			Name: shape, TaintedInPorts: []int{0}, TaintedData: []service.RangeRequest{partition},
			TaintedCode: []service.RangeRequest{tr}, TaintCodeWords: words,
		}}, nil

	case "table1":
		// A verified Table 1 system under a seeded variant of its
		// evaluation policy: extra tainted input ports, extra legal tainted
		// output ports, and possibly a secret range in the partition.
		p := g.table1[g.table1Progs.draw(r)]
		in, out := []int{0}, []int{1}
		inMask, outMask := r.IntN(8), r.IntN(4)
		for i := 0; i < 3; i++ {
			if inMask>>i&1 == 1 {
				in = append(in, i+1)
			}
		}
		for i := 0; i < 2; i++ {
			if outMask>>i&1 == 1 {
				out = append(out, i+2)
			}
		}
		secret := r.IntN(33)
		pol := service.PolicyRequest{
			Name: "table1/" + p.name, TaintedInPorts: in, TaintedOutPorts: out,
			TaintedCode: []service.RangeRequest{p.task}, TaintedData: []service.RangeRequest{partition},
		}
		if secret > 0 {
			lo := uint16(bench.PartLo + 32*(secret-1))
			pol.InitiallyTaintedData = []service.RangeRequest{{Lo: lo, Hi: lo + 32}}
		}
		return &jobSpec{class: class, source: p.src, policy: pol,
			key: fmt.Sprintf("table1/%s/%d/%d/%d", p.name, inMask, outMask, secret)}, nil

	case "rv32":
		// An rv32 smoke program under a seeded variant of its policy.
		bs := rv32.Benchmarks()
		b := bs[g.rv32Progs.draw(r)]
		base := b.Policy()
		in, out := append([]int(nil), base.TaintedInPorts...), append([]int(nil), base.TaintedOutPorts...)
		inMask, outMask, part := r.IntN(8), r.IntN(4), r.IntN(32)
		for i := 0; i < 3; i++ {
			if inMask>>i&1 == 1 {
				in = append(in, i+1)
			}
		}
		for i := 0; i < 2; i++ {
			if outMask>>i&1 == 1 {
				out = append(out, i+2)
			}
		}
		pol := service.PolicyRequest{Name: base.Name, TaintedInPorts: in, TaintedOutPorts: out}
		for _, c := range base.TaintedCode {
			pol.TaintedCode = append(pol.TaintedCode, service.RangeRequest{Lo: c.Lo, Hi: c.Hi})
		}
		pol.TaintedData = []service.RangeRequest{{Lo: uint16(rv32.PartLo - 0x40*part), Hi: rv32.PartHi}}
		return &jobSpec{class: class, target: "rv32", source: b.Src, policy: pol,
			key: fmt.Sprintf("rv32/%s/%d/%d/%d", b.Name, inMask, outMask, part)}, nil
	}
	return nil, fmt.Errorf("unknown input class %q", class)
}

// stream is the seeded submission sequence of gliftd-mixed: in every block
// of four submissions one, at a seeded position, is a new distinct input
// and the other three repeat a uniformly drawn earlier one. The sequence
// depends only on the seed; the two clients take items in turn.
type stream struct {
	mu      sync.Mutex
	gen     *generator
	rng     *rand.Rand
	inputs  []*jobSpec
	issued  int
	newAt   int
	repeats int
}

func newStream(seed int64) (*stream, error) {
	g, err := newGenerator(seed)
	if err != nil {
		return nil, err
	}
	return &stream{gen: g, rng: rand.New(rand.NewPCG(uint64(seed), 0x73747265616d))}, nil
}

// next returns the index of the next submission's input.
func (s *stream) next() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pos := s.issued % 4
	if pos == 0 {
		s.newAt = s.rng.IntN(4)
		if s.issued == 0 {
			s.newAt = 0
		}
	}
	s.issued++
	if pos == s.newAt {
		j, err := s.gen.next()
		if err != nil {
			return 0, err
		}
		s.inputs = append(s.inputs, j)
		return len(s.inputs) - 1, nil
	}
	s.repeats++
	return s.rng.IntN(len(s.inputs)), nil
}

func (s *stream) input(i int) *jobSpec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inputs[i]
}

// repeatShare is the generated share of submissions that repeat an input.
func (s *stream) repeatShare() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ratio(float64(s.repeats), float64(s.issued))
}
