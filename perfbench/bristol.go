package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// The benchmark's own Bristol-fashion reader, writer and evaluator. It is
// deliberately independent of the optimizer's packages (internal/xag,
// internal/sim): the oracle that judges the optimizer's outputs must not
// share code with it.

type opcode uint8

const (
	opXOR opcode = iota
	opAND
	opINV // also NOT
	opEQW // wire copy
	opEQ  // constant
)

var opNames = [...]string{opXOR: "XOR", opAND: "AND", opINV: "INV", opEQW: "EQW", opEQ: "EQ"}

type gate struct {
	op   opcode
	a, b int32 // operands; for EQ, a is the constant bit
	out  int32
}

// circuit is a parsed Bristol netlist. Wires 0..nin-1 are the primary
// inputs and the last nout wires are the primary outputs, in order.
type circuit struct {
	nwires    int
	nin, nout int
	inHeader  string // the value-width lines, kept verbatim for rewriting
	outHeader string
	gates     []gate
}

func parseBristol(data []byte) (*circuit, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	next := func() ([]string, bool) {
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) > 0 {
				return f, true
			}
		}
		return nil, false
	}
	atoi := func(s string) (int, error) {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			return 0, fmt.Errorf("bristol: bad number %q", s)
		}
		return v, nil
	}
	width := func(f []string, what string) (int, error) {
		if len(f) == 0 {
			return 0, fmt.Errorf("bristol: missing %s header", what)
		}
		n, err := atoi(f[0])
		if err != nil || len(f) != n+1 {
			return 0, fmt.Errorf("bristol: malformed %s header", what)
		}
		total := 0
		for _, s := range f[1:] {
			w, err := atoi(s)
			if err != nil {
				return 0, err
			}
			total += w
		}
		return total, nil
	}

	head, ok := next()
	if !ok || len(head) != 2 {
		return nil, fmt.Errorf("bristol: malformed header")
	}
	ngates, err := atoi(head[0])
	if err != nil {
		return nil, err
	}
	c := &circuit{}
	if c.nwires, err = atoi(head[1]); err != nil {
		return nil, err
	}
	inHdr, _ := next()
	if c.nin, err = width(inHdr, "input"); err != nil {
		return nil, err
	}
	outHdr, _ := next()
	if c.nout, err = width(outHdr, "output"); err != nil {
		return nil, err
	}
	c.inHeader, c.outHeader = strings.Join(inHdr, " "), strings.Join(outHdr, " ")
	if c.nin+c.nout > c.nwires {
		return nil, fmt.Errorf("bristol: %d inputs and %d outputs exceed %d wires", c.nin, c.nout, c.nwires)
	}

	c.gates = make([]gate, 0, ngates)
	wire := func(s string) (int32, error) {
		v, err := atoi(s)
		if err != nil || v >= c.nwires {
			return 0, fmt.Errorf("bristol: wire %q out of range", s)
		}
		return int32(v), nil
	}
	for len(c.gates) < ngates {
		f, ok := next()
		if !ok {
			return nil, fmt.Errorf("bristol: %d of %d gates", len(c.gates), ngates)
		}
		if len(f) < 4 {
			return nil, fmt.Errorf("bristol: short gate line %q", strings.Join(f, " "))
		}
		var g gate
		switch f[len(f)-1] {
		case "XOR", "AND":
			if len(f) != 6 || f[0] != "2" || f[1] != "1" {
				return nil, fmt.Errorf("bristol: bad binary gate %q", strings.Join(f, " "))
			}
			if g.a, err = wire(f[2]); err == nil {
				if g.b, err = wire(f[3]); err == nil {
					g.out, err = wire(f[4])
				}
			}
			g.op = opXOR
			if f[5] == "AND" {
				g.op = opAND
			}
		case "INV", "NOT", "EQW", "EQ":
			if len(f) != 5 || f[0] != "1" || f[1] != "1" {
				return nil, fmt.Errorf("bristol: bad unary gate %q", strings.Join(f, " "))
			}
			switch f[4] {
			case "EQ":
				g.op = opEQ
				var bit int
				if bit, err = atoi(f[2]); err == nil && bit > 1 {
					err = fmt.Errorf("bristol: EQ constant %d", bit)
				}
				g.a = int32(bit)
			case "EQW":
				g.op = opEQW
				g.a, err = wire(f[2])
			default:
				g.op = opINV
				g.a, err = wire(f[2])
			}
			if err == nil {
				g.out, err = wire(f[3])
			}
		default:
			return nil, fmt.Errorf("bristol: unsupported gate %q", f[len(f)-1])
		}
		if err != nil {
			return nil, err
		}
		c.gates = append(c.gates, g)
	}
	if err := c.checkOrder(); err != nil {
		return nil, err
	}
	return c, nil
}

// checkOrder verifies that every gate reads only wires defined earlier (or
// primary inputs), that no wire is driven twice, and that every output is
// driven.
func (c *circuit) checkOrder() error {
	defined := make([]bool, c.nwires)
	for i := 0; i < c.nin; i++ {
		defined[i] = true
	}
	for i, g := range c.gates {
		if g.op != opEQ && !defined[g.a] || (g.op == opXOR || g.op == opAND) && !defined[g.b] {
			return fmt.Errorf("bristol: gate %d reads an undefined wire", i)
		}
		if defined[g.out] {
			return fmt.Errorf("bristol: wire %d driven twice", g.out)
		}
		defined[g.out] = true
	}
	for w := c.nwires - c.nout; w < c.nwires; w++ {
		if !defined[w] {
			return fmt.Errorf("bristol: output wire %d undriven", w)
		}
	}
	return nil
}

func (c *circuit) bytes() []byte {
	var b bytes.Buffer
	b.Grow(16 * len(c.gates))
	fmt.Fprintf(&b, "%d %d\n%s\n%s\n\n", len(c.gates), c.nwires, c.inHeader, c.outHeader)
	for _, g := range c.gates {
		switch {
		case g.op == opEQ:
			fmt.Fprintf(&b, "1 1 %d %d EQ\n", g.a, g.out)
		case g.op == opINV || g.op == opEQW:
			fmt.Fprintf(&b, "1 1 %d %d %s\n", g.a, g.out, opNames[g.op])
		default:
			fmt.Fprintf(&b, "2 1 %d %d %d %s\n", g.a, g.b, g.out, opNames[g.op])
		}
	}
	return b.Bytes()
}

// operands returns the wires g reads.
func (g gate) operands() []int32 {
	switch g.op {
	case opXOR, opAND:
		return []int32{g.a, g.b}
	case opEQ:
		return nil
	}
	return []int32{g.a}
}

// ands counts AND gates.
func (c *circuit) ands() int {
	n := 0
	for _, g := range c.gates {
		if g.op == opAND {
			n++
		}
	}
	return n
}

// andDepth is the largest number of AND gates on any input-to-output path.
func (c *circuit) andDepth() int {
	level := make([]int32, c.nwires)
	for _, g := range c.gates {
		var l int32
		switch g.op {
		case opXOR, opAND:
			l = max(level[g.a], level[g.b])
			if g.op == opAND {
				l++
			}
		case opINV, opEQW:
			l = level[g.a]
		}
		level[g.out] = l
	}
	d := int32(0)
	for w := c.nwires - c.nout; w < c.nwires; w++ {
		d = max(d, level[w])
	}
	return int(d)
}

// eval simulates 64 input vectors at once: in holds one word per primary
// input, and the result one word per primary output.
func (c *circuit) eval(in []uint64, wires []uint64) []uint64 {
	copy(wires, in)
	for _, g := range c.gates {
		var v uint64
		switch g.op {
		case opXOR:
			v = wires[g.a] ^ wires[g.b]
		case opAND:
			v = wires[g.a] & wires[g.b]
		case opINV:
			v = ^wires[g.a]
		case opEQW:
			v = wires[g.a]
		case opEQ:
			v = -uint64(g.a)
		}
		wires[g.out] = v
	}
	return wires[c.nwires-c.nout:]
}

// equivalent compares a and b on rounds×64 input vectors drawn from seed.
func equivalent(a, b *circuit, seed int64, rounds int) error {
	if a.nin != b.nin || a.nout != b.nout {
		return fmt.Errorf("interface mismatch: %d→%d vs %d→%d bits", a.nin, a.nout, b.nin, b.nout)
	}
	rng := rand.New(rand.NewSource(seed))
	in := make([]uint64, a.nin)
	wa, wb := make([]uint64, a.nwires), make([]uint64, b.nwires)
	for r := 0; r < rounds; r++ {
		for i := range in {
			in[i] = rng.Uint64()
		}
		// The first round also covers the all-zero and all-one vectors.
		if r == 0 {
			for i := range in {
				in[i] = in[i]&^3 | 2
			}
		}
		oa, ob := a.eval(in, wa), b.eval(in, wb)
		for i := range oa {
			if oa[i] != ob[i] {
				return fmt.Errorf("output bit %d differs in vector round %d", i, r)
			}
		}
	}
	return nil
}

// renumber returns a copy of c with its lines reordered and its internal
// wires relabelled at random. Every INV, EQW and EQ line moves to a random
// position between the definition of its operand and its first use; AND
// and XOR gates keep their relative order. Those two are the only lines
// that become nodes when the program reads the file, so the copy differs
// byte for byte but the program builds the same network from it: a random
// order of AND and XOR gates would change node numbering, hence the cut
// ranking and the engine's work, by up to a fifth on the deep circuits,
// and the benchmark would measure the seed instead of the program. Primary
// input and output wire numbers are kept.
func (c *circuit) renumber(rng *rand.Rand) *circuit {
	definer := make([]int32, c.nwires)
	for i := range definer {
		definer[i] = -1
	}
	binary := func(g gate) bool { return g.op == opXOR || g.op == opAND }
	pos := make([]int32, len(c.gates)) // binary gates: rank among binary gates
	nb := int32(0)
	for i, g := range c.gates {
		definer[g.out] = int32(i)
		if binary(g) {
			pos[i] = nb
			nb++
		}
	}
	// hi[u] bounds the slot of unary gate u: it must be emitted before the
	// binary gate of that rank (nb = after all of them).
	hi := make([]int32, len(c.gates))
	for i := range hi {
		hi[i] = nb
	}
	for i := len(c.gates) - 1; i >= 0; i-- {
		g := c.gates[i]
		bound := hi[i]
		if binary(g) {
			bound = pos[i]
		}
		for _, w := range g.operands() {
			if d := definer[w]; d >= 0 && !binary(c.gates[d]) {
				hi[d] = min(hi[d], bound)
			}
		}
	}
	// Each unary gate draws a slot no earlier than its operand's.
	slot := make([]int32, len(c.gates))
	buckets := make([][]int32, nb+1)
	for i, g := range c.gates {
		if binary(g) {
			continue
		}
		lo := int32(0)
		if d := definer[g.a]; g.op != opEQ && d >= 0 {
			lo = slot[d]
			if binary(c.gates[d]) {
				lo = pos[d] + 1
			}
		}
		slot[i] = lo + rng.Int31n(hi[i]-lo+1)
		buckets[slot[i]] = append(buckets[slot[i]], int32(i))
	}
	order := make([]int32, 0, len(c.gates))
	for i, g := range c.gates {
		if binary(g) {
			order = append(order, buckets[pos[i]]...)
			order = append(order, int32(i))
		}
	}
	order = append(order, buckets[nb]...)

	inner := c.nwires - c.nout - c.nin
	perm := rng.Perm(inner)
	relabel := func(w int32) int32 {
		if int(w) < c.nin || int(w) >= c.nwires-c.nout {
			return w
		}
		return int32(c.nin + perm[int(w)-c.nin])
	}
	out := *c
	out.gates = make([]gate, len(order))
	for i, gi := range order {
		g := c.gates[gi]
		if g.op != opEQ {
			g.a = relabel(g.a)
		}
		g.b = relabel(g.b)
		g.out = relabel(g.out)
		out.gates[i] = g
	}
	return &out
}
