package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"sentinel/internal/asm"
)

func TestKeyspaceIsThePaperCellMatrix(t *testing.T) {
	ks := keyspace()
	if want := 17 * 5 * 3 * 3 * 2; len(ks) != want {
		t.Fatalf("keyspace has %d keys, want %d", len(ks), want)
	}
	seen := map[string]bool{}
	for _, k := range ks {
		id := k.path + string(k.body)
		if seen[id] {
			t.Fatalf("duplicate key %s %s", k.path, k.body)
		}
		seen[id] = true
	}
	if n := len(optoutCells()); n != 17*5*3 {
		t.Errorf("optout cells = %d, want %d", n, 17*5*3)
	}
}

func TestVariantsRespellTheSameRequest(t *testing.T) {
	k := keyspace()[7]
	var canon map[string]any
	if err := json.Unmarshal(k.body, &canon); err != nil {
		t.Fatal(err)
	}
	for f := 1; f <= variantForms; f++ {
		v := k.render(f)
		if bytes.Equal(v, k.body) {
			t.Errorf("form %d is byte-identical to the canonical body", f)
		}
		var got map[string]any
		if err := json.Unmarshal(v, &got); err != nil {
			t.Fatalf("form %d: %v", f, err)
		}
		if !reflect.DeepEqual(got, canon) {
			t.Errorf("form %d means %v, want %v", f, got, canon)
		}
	}
}

func TestServeSequenceDeterministic(t *testing.T) {
	draw := func(seed uint64, conn int) []int {
		r := newRand(seed, conn)
		var s []int
		for i := 0; i < 64; i++ {
			s = append(s, r.IntN(1530))
		}
		return s
	}
	if !reflect.DeepEqual(draw(1, 0), draw(1, 0)) {
		t.Error("same seed and connection gave different sequences")
	}
	if reflect.DeepEqual(draw(1, 0), draw(2, 0)) {
		t.Error("a new seed gave the same sequence")
	}
	if reflect.DeepEqual(draw(1, 0), draw(1, 1)) {
		t.Error("two connections of one run share a sequence")
	}
}

func fleetOps(seed uint64, n int) []fleetOp {
	g := newFleetGen(seed, 0, 1530, 255)
	ops := make([]fleetOp, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

func TestFleetGenDeterministic(t *testing.T) {
	if !reflect.DeepEqual(fleetOps(3, 500), fleetOps(3, 500)) {
		t.Error("same seed gave different fleet sequences")
	}
	if reflect.DeepEqual(fleetOps(3, 500), fleetOps(4, 500)) {
		t.Error("a new seed gave the same fleet sequence")
	}
}

// The class shares are exact in every block of 100 requests, whatever the
// seed.
func TestFleetClassShares(t *testing.T) {
	if want := [numClasses]int{70, 20, 7, 3}; fleetShares != want {
		t.Fatalf("fleetShares = %v, want the stated %v", fleetShares, want)
	}
	for _, seed := range []uint64{1, 2, 99} {
		ops := fleetOps(seed, 1000)
		for b := 0; b < len(ops); b += 100 {
			var n [numClasses]int
			for _, op := range ops[b : b+100] {
				n[op.class]++
			}
			if n != fleetShares {
				t.Fatalf("seed %d block %d: class counts %v, want %v", seed, b/100, n, fleetShares)
			}
		}
	}
}

func TestFleetOpsAddressValidKeys(t *testing.T) {
	for _, op := range fleetOps(5, 2000) {
		switch op.class {
		case classVariant:
			if op.form < 1 || op.form > variantForms {
				t.Fatalf("variant form %d", op.form)
			}
		case classOptout:
			if op.key >= 255 {
				t.Fatalf("optout key %d", op.key)
			}
		}
		if op.key < 0 || op.key >= 1530 {
			t.Fatalf("key %d out of range", op.key)
		}
	}
}

func coldFrames(seed uint64, conn, n int) [][]coldElem {
	g := newColdGen(seed, conn)
	var fs [][]coldElem
	for i := 0; i < n; i++ {
		fs = append(fs, g.frame())
	}
	return fs
}

func TestColdGenDeterministic(t *testing.T) {
	if !reflect.DeepEqual(coldFrames(7, 0, 4), coldFrames(7, 0, 4)) {
		t.Error("same seed gave different frames")
	}
	if reflect.DeepEqual(coldFrames(7, 0, 4), coldFrames(8, 0, 4)) {
		t.Error("a new seed gave the same frames")
	}
}

// Every program of a stream is distinct and assembles; each frame carries
// one in-frame twin of its first element and one full:true workload run.
func TestColdFrameShape(t *testing.T) {
	seen := map[string]bool{}
	for _, conn := range []int{0, 1} {
		for _, f := range coldFrames(7, conn, 20) {
			if len(f) != frameElems {
				t.Fatalf("frame of %d elements, want %d", len(f), frameElems)
			}
			if !bytes.Equal(f[framePrograms].payload, f[0].payload) {
				t.Error("the twin does not repeat the first element")
			}
			if !bytes.Contains(f[frameElems-1].payload, []byte(`"full":true`)) {
				t.Errorf("last element %s is not a full:true simulate", f[frameElems-1].payload)
			}
			for _, e := range f[:framePrograms] {
				if seen[string(e.payload)] {
					t.Fatalf("program repeats: %s", e.payload)
				}
				seen[string(e.payload)] = true
				var req struct{ Source string }
				if err := json.Unmarshal(e.payload, &req); err != nil {
					t.Fatal(err)
				}
				if _, _, err := asm.Parse(req.Source); err != nil {
					t.Fatalf("generated program does not assemble: %v\n%s", err, req.Source)
				}
			}
		}
	}
}

func TestBatchBody(t *testing.T) {
	ks := keyspace()
	body := batchBody(ks, []int{0, 1})
	var items []struct {
		Op      string
		Request json.RawMessage
	}
	if err := json.Unmarshal(body, &items); err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items[0].Op != "simulate" || items[1].Op != "schedule" ||
		!bytes.Equal(items[0].Request, ks[0].body) || !strings.Contains(ks[1].path, "schedule") {
		t.Errorf("batch body %s does not carry keys 0 and 1", body)
	}
}

// A deck deals every value once per round, in a seeded order.
func TestDeck(t *testing.T) {
	d := newDeck(newRand(1, 0), 5)
	for round := 0; round < 3; round++ {
		seen := map[int]bool{}
		for i := 0; i < 5; i++ {
			seen[d.next()] = true
		}
		if len(seen) != 5 {
			t.Fatalf("round %d dealt %v", round, seen)
		}
	}
	deal := func(seed uint64) []int {
		d := newDeck(newRand(seed, 0), 50)
		var s []int
		for i := 0; i < 50; i++ {
			s = append(s, d.next())
		}
		return s
	}
	if !reflect.DeepEqual(deal(1), deal(1)) || reflect.DeepEqual(deal(1), deal(2)) {
		t.Error("deck order is not a function of the seed")
	}
}
