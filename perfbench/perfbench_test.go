package main

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/xag"
)

// fullAdder is an unoptimized full adder: inputs a, b, cin; outputs sum
// and carry.
const fullAdder = "10 13\n3 1 1 1\n1 2\n\n2 1 0 1 3 XOR\n2 1 3 2 4 XOR\n2 1 0 1 5 AND\n2 1 2 3 6 AND\n1 1 5 7 INV\n1 1 6 8 INV\n2 1 7 8 9 AND\n1 1 9 10 INV\n1 1 4 11 EQW\n1 1 10 12 EQW\n"

func TestEvaluatorComputesFullAdder(t *testing.T) {
	c, err := parseBristol([]byte(fullAdder))
	if err != nil {
		t.Fatal(err)
	}
	if c.ands() != 3 || c.andDepth() != 2 {
		t.Fatalf("ands %d depth %d, want 3 and 2", c.ands(), c.andDepth())
	}
	// Vector v (bit v of every word) assigns a=v&1, b=v>>1&1, cin=v>>2&1.
	in := make([]uint64, 3)
	for v := 0; v < 8; v++ {
		for i := range in {
			in[i] |= uint64(v>>i&1) << v
		}
	}
	out := c.eval(in, make([]uint64, c.nwires))
	for v := 0; v < 8; v++ {
		total := v&1 + v>>1&1 + v>>2&1
		if got := int(out[0]>>v&1) + 2*int(out[1]>>v&1); got != total {
			t.Errorf("vector %03b: adder gives %d, want %d", v, got, total)
		}
	}
}

func TestRenumberKeepsFunction(t *testing.T) {
	for _, name := range []string{"adder-64", "sha-256-round"} {
		gen, err := generate(name)
		if err != nil {
			t.Fatal(err)
		}
		a := gen.renumber(rand.New(rand.NewSource(1)))
		b := gen.renumber(rand.New(rand.NewSource(2)))
		if bytes.Equal(a.bytes(), gen.bytes()) || bytes.Equal(a.bytes(), b.bytes()) {
			t.Errorf("%s: renumbering left the netlist unchanged", name)
		}
		for _, c := range []*circuit{a, b} {
			// Round-trip through the text form, which re-checks the order.
			back, err := parseBristol(c.bytes())
			if err != nil {
				t.Fatalf("%s: renumbered netlist does not parse: %v", name, err)
			}
			if err := equivalent(gen, back, 7, oracleRounds); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if back.ands() != gen.ands() || back.andDepth() != gen.andDepth() {
				t.Errorf("%s: renumbering changed the AND count or depth", name)
			}
			// The program must build the very same network from both.
			if got, want := programView(t, back.bytes()), programView(t, gen.bytes()); !bytes.Equal(got, want) {
				t.Errorf("%s: the program reads the renumbered netlist as a different network", name)
			}
		}
	}
}

// programView is the network the program builds from a netlist, written
// back out by the program itself.
func programView(t *testing.T, data []byte) []byte {
	t.Helper()
	n, err := xag.ReadBristol(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := n.WriteBristol(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestOracleRejectsCorruptedCircuit(t *testing.T) {
	gen, err := generate("adder-64")
	if err != nil {
		t.Fatal(err)
	}
	bad := *gen
	bad.gates = append([]gate(nil), gen.gates...)
	for i, g := range bad.gates {
		if g.op == opXOR {
			bad.gates[i].op = opAND
			break
		}
	}
	if equivalent(gen, &bad, 1, oracleRounds) == nil {
		t.Fatal("oracle accepted a circuit with an XOR turned into an AND")
	}
}

// fakeMcopt installs an mcopt stand-in that copies its input to its output
// through the given sed script.
func fakeMcopt(t *testing.T, sedScript string) string {
	t.Helper()
	if _, err := exec.LookPath("sed"); err != nil {
		t.Skip("sed not available")
	}
	dir := t.TempDir()
	script := "#!/bin/sh\nwhile [ $# -gt 0 ]; do case $1 in -in) in=$2; shift;; -out) out=$2; shift;; esac; shift; done\n" +
		"sed '" + sedScript + "' \"$in\" > \"$out\"\n"
	for _, tool := range []string{"mcopt", "mcserved"} {
		if err := os.WriteFile(filepath.Join(dir, tool), []byte(script), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runFakeLadder(t *testing.T, sedScript string) *workloadResult {
	t.Helper()
	work := t.TempDir()
	e := &env{bin: fakeMcopt(t, sedScript), work: filepath.Join(work, "run"), seed: 3}
	w := workload{name: "control", passSeconds: 1, prepare: prepareCLI([]string{"adder-64", "max"})}
	res, err := runWorkload(context.Background(), w, e, 1, work, runContext())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The negative control: an mcopt that corrupts its output must show up in
// error_rate, and the same harness with a faithful copy must not.
func TestNegativeControlCountsCorruptedOutput(t *testing.T) {
	ok := runFakeLadder(t, "")
	if !ok.Correct || ok.Failed != 0 || ok.extra["error_rate"] != 0 {
		t.Fatalf("faithful stand-in: correct %v, failed %d, errors %v", ok.Correct, ok.Failed, ok.errs)
	}
	if ok.Metrics["and_ratio"].Value != 1 {
		t.Errorf("copying the input gives and_ratio %v, want 1", ok.Metrics["and_ratio"].Value)
	}

	// Invert one output bit of every circuit: its first EQW becomes an INV.
	bad := runFakeLadder(t, "0,/ EQW$/s/ EQW$/ INV/")
	if bad.Correct || bad.Failed != 2 || bad.extra["error_rate"] != 1 {
		t.Fatalf("corrupting stand-in: correct %v, failed %d of %d, error_rate %v",
			bad.Correct, bad.Failed, bad.Attempted, bad.extra["error_rate"])
	}
	if !strings.Contains(strings.Join(bad.errs, "\n"), "not equivalent") {
		t.Errorf("failures do not name the oracle: %v", bad.errs)
	}
}

func TestDeterminismGuardCountsChangedOutput(t *testing.T) {
	work := t.TempDir()
	first := newPass()
	first.digests["adder-64"] = "aaaa"
	if err := guardDeterminism(work, "w", 5, first); err != nil || first.failed != 0 {
		t.Fatalf("first record: %v, %d failures", err, first.failed)
	}
	same, changed := newPass(), newPass()
	same.digests["adder-64"] = "aaaa"
	changed.digests["adder-64"] = "bbbb"
	if err := guardDeterminism(work, "w", 5, same); err != nil || same.failed != 0 {
		t.Fatalf("identical rerun: %v, %d failures", err, same.failed)
	}
	if err := guardDeterminism(work, "w", 5, changed); err != nil || changed.failed != 1 {
		t.Fatalf("changed rerun: %v, %d failures, want 1", err, changed.failed)
	}
}
