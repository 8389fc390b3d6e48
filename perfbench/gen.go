package main

// The seeded input generator. Every request the benchmark sends is made
// here from the workload seed; the program under test sees only these
// generated inputs. A stream is a pure function of (seed, connection), so
// the same seed replays the same op sequence on every connection.

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"sentinel/internal/wire"
	"sentinel/internal/workload"
)

// The paper cell matrix the serving workloads address.
var (
	modelNames     = []string{"restricted", "general", "sentinel", "sentinel+stores", "boosting"}
	matrixWidths   = []int{2, 4, 8}
	predictorNames = []string{"perfect", "static", "tage"}
)

// workloadNames lists the 17 kernels in the paper's order.
func workloadNames() []string {
	var names []string
	for _, b := range workload.All() {
		names = append(names, b.Name)
	}
	return names
}

// key is one distinct serving request: an endpoint and its canonical body.
type key struct {
	path string // /v1/simulate or /v1/schedule
	body []byte
	// fields, for re-rendering variants and routing.
	workload, model, predictor string
	width                      int
}

// keyspace is the whole paper cell matrix as simulate and schedule
// requests: 17 workloads × 5 models × 3 widths × 3 predictors × 2
// endpoints = 1530 distinct requests, small enough for a 4096-entry
// response cache.
func keyspace() []key {
	var ks []key
	for _, w := range workloadNames() {
		for _, m := range modelNames {
			for _, width := range matrixWidths {
				for _, p := range predictorNames {
					for _, path := range []string{"/v1/simulate", "/v1/schedule"} {
						k := key{path: path, workload: w, model: m, predictor: p, width: width}
						k.body = k.render(0)
						ks = append(ks, k)
					}
				}
			}
		}
	}
	return ks
}

// variantForms is how many spellings render knows beyond the canonical one.
const variantForms = 3

// render spells k's body. Form 0 is the canonical compact JSON; forms 1..3
// reorder fields and/or add whitespace, which changes the raw bytes but not
// the request's meaning.
func (k key) render(form int) []byte {
	switch form {
	case 1:
		return fmt.Appendf(nil, `{"model":%q,"width":%d,"predictor":%q,"workload":%q}`, k.model, k.width, k.predictor, k.workload)
	case 2:
		return fmt.Appendf(nil, `{ "workload": %q, "model": %q, "width": %d, "predictor": %q }`, k.workload, k.model, k.width, k.predictor)
	case 3:
		return fmt.Appendf(nil, "{\n  \"predictor\": %q,\n  \"workload\": %q,\n  \"width\": %d,\n  \"model\": %q\n}", k.predictor, k.workload, k.width, k.model)
	default:
		return fmt.Appendf(nil, `{"workload":%q,"model":%q,"width":%d,"predictor":%q}`, k.workload, k.model, k.width, k.predictor)
	}
}

// optoutCells are the full:true simulates: every workload × model × width
// under the default frontend, each an uncached per-request simulation.
func optoutCells() []key {
	var ks []key
	for _, w := range workloadNames() {
		for _, m := range modelNames {
			for _, width := range matrixWidths {
				k := key{path: "/v1/simulate", workload: w, model: m, width: width}
				k.body = fmt.Appendf(nil, `{"workload":%q,"model":%q,"width":%d,"full":true}`, w, m, width)
				ks = append(ks, k)
			}
		}
	}
	return ks
}

// newRand returns the generator for one connection of one run.
func newRand(seed uint64, conn int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^uint64(conn)))
}

// deck deals 0..n-1 in a seeded shuffled order, reshuffling each round, so
// every value comes up equally often whatever the seed. The workloads deal
// their expensive items (full simulations, whose costs differ by two orders
// of magnitude across cells) from decks, so that a run's cost mix does not
// depend on its seed.
type deck struct {
	r     *rand.Rand
	order []int
}

func newDeck(r *rand.Rand, n int) *deck {
	return &deck{r: r, order: make([]int, 0, n)}
}

func (d *deck) next() int {
	if len(d.order) == 0 {
		d.order = d.order[:cap(d.order)]
		for i := range d.order {
			d.order[i] = i
		}
		d.r.Shuffle(len(d.order), func(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] })
	}
	v := d.order[len(d.order)-1]
	d.order = d.order[:len(d.order)-1]
	return v
}

// Request classes of fleet_mixed.
const (
	classRepeat  = iota // byte-identical repeat of a cached key: front cache raw lane
	classVariant        // respelled JSON for a cached key: front cache canonical lane
	classBatch          // small POST /v1/batch: the router's streaming hop
	classOptout         // full:true simulate: the raw hop plus a real simulation
	numClasses
)

var classNames = [numClasses]string{"repeat", "variant", "batch", "optout"}

// fleetShares is each class's exact count in every block of 100 requests.
// repeat is the fastest class and holds the median; optout is the slowest
// and holds p99 (3% of requests, so the top 1% falls inside it).
var fleetShares = [numClasses]int{70, 20, 7, 3}

// batchSize is the element count of a fleet_mixed batch request.
const batchSize = 4

// fleetOp is one generated fleet_mixed request.
type fleetOp struct {
	class int
	key   int // index into keyspace (repeat, variant) or optoutCells
	form  int // variant spelling, 1..variantForms
	elems [batchSize]int
}

// fleetGen deals classes from shuffled blocks of 100, so every block holds
// the stated shares exactly.
type fleetGen struct {
	r     *rand.Rand
	nkeys int
	opt   *deck
	block []int
}

func newFleetGen(seed uint64, conn, nkeys, nopt int) *fleetGen {
	r := newRand(seed, conn)
	return &fleetGen{r: r, nkeys: nkeys, opt: newDeck(r, nopt)}
}

func (g *fleetGen) next() fleetOp {
	if len(g.block) == 0 {
		for c, n := range fleetShares {
			for i := 0; i < n; i++ {
				g.block = append(g.block, c)
			}
		}
		g.r.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	op := fleetOp{class: g.block[len(g.block)-1]}
	g.block = g.block[:len(g.block)-1]
	switch op.class {
	case classRepeat:
		op.key = g.r.IntN(g.nkeys)
	case classVariant:
		op.key = g.r.IntN(g.nkeys)
		op.form = 1 + g.r.IntN(variantForms)
	case classBatch:
		for i := range op.elems {
			op.elems[i] = g.r.IntN(g.nkeys)
		}
	case classOptout:
		op.key = g.opt.next()
	}
	return op
}

// batchBody renders a /v1/batch request over keys.
func batchBody(ks []key, idx []int) []byte {
	b := []byte{'['}
	for i, k := range idx {
		if i > 0 {
			b = append(b, ',')
		}
		op := "simulate"
		if ks[k].path == "/v1/schedule" {
			op = "schedule"
		}
		b = fmt.Appendf(b, `{"op":%q,"request":%s}`, op, ks[k].body)
	}
	return append(b, ']')
}

// Frame shape of batch_cold: distinct inline programs, one in-frame twin of
// the first, and one full:true workload simulate.
const (
	framePrograms = 6
	frameElems    = framePrograms + 2
)

// coldElem is one batch_cold element.
type coldElem struct {
	op      byte // wire.OpSimulate
	payload []byte
}

// coldGen makes batch_cold frames. Every program is distinct across the
// whole run (its stream position is folded into its constants), so each one
// needs a cold assemble, profile, form, schedule and simulate.
type coldGen struct {
	r     *rand.Rand
	seed  uint64
	conn  int
	n     int // programs made so far
	cells []key
	deal  *deck
}

func newColdGen(seed uint64, conn int) *coldGen {
	r := newRand(seed, conn)
	cells := optoutCells()
	return &coldGen{r: r, seed: seed, conn: conn, cells: cells, deal: newDeck(r, len(cells))}
}

// frame returns the next frame's elements.
func (g *coldGen) frame() []coldElem {
	es := make([]coldElem, 0, frameElems)
	for i := 0; i < framePrograms; i++ {
		es = append(es, coldElem{op: wire.OpSimulate, payload: g.program()})
	}
	es = append(es, coldElem{op: wire.OpSimulate, payload: es[0].payload}) // in-frame twin
	c := g.cells[g.deal.next()]
	return append(es, coldElem{op: wire.OpSimulate, payload: c.body})
}

// program renders one simulate request carrying a fresh MIR program: an
// outer loop over an array walk whose body mixes ALU ops with a biased
// branch (so profiling finds a hot trace for superblock formation), ending
// by printing the accumulator.
func (g *coldGen) program() []byte {
	r := g.r
	g.n++
	n := 16 + r.IntN(33)
	reps := 2 + r.IntN(5)
	thr := r.IntN(1000)
	alu := []string{"add", "sub", "xor", "or", "and", "mul"}
	pick := func() string { return alu[r.IntN(len(alu))] }

	var b strings.Builder
	fmt.Fprintf(&b, "; program %d/%d/%d\n.seg data 4096 %d\n", g.seed, g.conn, g.n, 8*n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, ".word %d %d\n", 4096+8*i, r.IntN(1000))
	}
	fmt.Fprintf(&b, "entry:\n    li r2, %d\n    li r3, %d\n    li r6, %d\nouter:\n    li r1, 4096\n    li r4, 0\nloop:\n    bge r4, r2, next\n    ld r5, 0(r1)\n", n, g.n, reps)
	fmt.Fprintf(&b, "    %s r3, r3, r5\n", pick())
	for i := r.IntN(3); i > 0; i-- {
		fmt.Fprintf(&b, "    %s r7, r5, %d\n    %s r3, r3, r7\n", pick(), 1+r.IntN(97), pick())
	}
	fmt.Fprintf(&b, "    blt r5, %d, skip\n    %s r3, r3, %d\n    st r3, 0(r1)\nskip:\n", thr, pick(), 1+r.IntN(1000))
	b.WriteString("    add r1, r1, 8\n    add r4, r4, 1\n    jmp loop\nnext:\n    sub r6, r6, 1\n    bne r6, 0, outer\n    jsr putint, r3\n    halt\n")

	m := modelNames[r.IntN(len(modelNames))]
	w := matrixWidths[r.IntN(len(matrixWidths))]
	p := predictorNames[r.IntN(len(predictorNames))]
	return fmt.Appendf(nil, `{"source":%q,"model":%q,"width":%d,"predictor":%q}`, b.String(), m, w, p)
}
