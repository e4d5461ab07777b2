package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/bench"
)

// oracleRounds is the number of 64-vector rounds the oracle simulates per
// comparison.
const oracleRounds = 8

// input is one generated circuit as the program receives it: the
// generator's netlist with its gates renumbered by the seed.
type input struct {
	name string
	gen  *circuit // the generator's netlist, as written
	c    *circuit // the renumbered netlist sent to the program
	data []byte   // c in Bristol bytes
}

// subSeed derives a per-purpose seed from the run seed, so the renumbering,
// the oracle vectors and the request order are independent streams.
func subSeed(seed int64, parts ...any) int64 {
	h := fnv.New64a()
	fmt.Fprint(h, seed)
	for _, p := range parts {
		fmt.Fprint(h, "/", p)
	}
	return int64(h.Sum64() >> 1)
}

// generate returns the generator's Bristol netlist for a built-in circuit.
func generate(name string) (*circuit, error) {
	b, ok := bench.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown circuit %q", name)
	}
	var buf bytes.Buffer
	if err := b.Build().WriteBristol(&buf); err != nil {
		return nil, fmt.Errorf("%s: write: %w", name, err)
	}
	return parseBristol(buf.Bytes())
}

// makeInputs renumbers gen `variants` times, each a seeded topologically
// valid gate order, and self-checks every copy against the generator's
// netlist on seeded vectors.
func makeInputs(name string, gen *circuit, seed int64, variants int) ([]*input, error) {
	out := make([]*input, variants)
	for v := range out {
		c := gen.renumber(rand.New(rand.NewSource(subSeed(seed, "renumber", name, v))))
		if err := equivalent(gen, c, subSeed(seed, "selfcheck", name, v), oracleRounds); err != nil {
			return nil, fmt.Errorf("%s: renumbered input differs from the generator: %w", name, err)
		}
		out[v] = &input{name: name, gen: gen, c: c, data: c.bytes()}
	}
	return out, nil
}

// judge parses an output netlist and compares it with the input it was
// produced from. It returns the parsed output.
func judge(in *input, out []byte, seed int64) (*circuit, error) {
	oc, err := parseBristol(out)
	if err != nil {
		return nil, fmt.Errorf("%s: output does not parse: %w", in.name, err)
	}
	if err := equivalent(in.c, oc, subSeed(seed, "oracle", in.name), oracleRounds); err != nil {
		return nil, fmt.Errorf("%s: output is not equivalent to its input: %w", in.name, err)
	}
	return oc, nil
}
