package netcons_test

// TestSparseRunsPinned pins the sparse engine's output bit for bit
// across changes to its census index: every registry protocol runs on
// EngineSparse in five cases — the dense edge store (n = 24), the
// sparse adjacency store (n > 4096 on a short step budget), a G(n,p)
// and a random-geometric topology, and a fault plan — and a digest of
// each run's results and sampling telemetry must equal the recorded
// one. The same runs through EngineBatch's exact route (forced by an
// observer where nothing else forces it) must reproduce the digests,
// which pins the batch engine's bit-identity contract against the same
// recorded values.
//
// A digest mismatch means the sparse engine's draw stream changed. If
// that is intended, the failure message prints the replacement table.

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/scenario"
)

// sparsePinDigests maps "protocol/case" to the digest of the case's
// runs (see sparsePinDigest).
var sparsePinDigests = map[string]string{
	"2rc/dense-store":                 "de40127767ea6638",
	"2rc/faults":                      "e65c8432547b00df",
	"2rc/gnp":                         "f9b7f4d7ff79c552",
	"2rc/rgg":                         "df1739e0673cdb04",
	"2rc/sparse-store":                "f8485d1702524a50",
	"3-cliques/dense-store":           "82fe8855b8e0b70a",
	"3-cliques/faults":                "4536b838aa015e05",
	"3-cliques/gnp":                   "d024cbccc59b5edc",
	"3-cliques/rgg":                   "eb2191204be0ec29",
	"3-cliques/sparse-store":          "6f9bd605790d91fe",
	"3rc/dense-store":                 "a9b06e17684d072c",
	"3rc/faults":                      "b7a785bfdbd8e565",
	"3rc/gnp":                         "06e112aa3b23b01d",
	"3rc/rgg":                         "e4bebecae1da7387",
	"3rc/sparse-store":                "9d9ce093bb2571a0",
	"4-cliques/dense-store":           "af1317109c87057e",
	"4-cliques/faults":                "e656298f4d948691",
	"4-cliques/gnp":                   "44d45d77995aab42",
	"4-cliques/rgg":                   "84dd7d2554eac635",
	"4-cliques/sparse-store":          "9dae64b30826bc0b",
	"4rc/dense-store":                 "8fd2bd71991d339b",
	"4rc/faults":                      "a7eebba3eec89a7e",
	"4rc/gnp":                         "be8bd2f29428f845",
	"4rc/rgg":                         "a590ca1f36ee4940",
	"4rc/sparse-store":                "a8da06b93a05b0e8",
	"cycle-cover/dense-store":         "82070474d83b1e08",
	"cycle-cover/faults":              "8a72d2c64ac3e870",
	"cycle-cover/gnp":                 "2e4b375dd17b6009",
	"cycle-cover/rgg":                 "9e688a282f46f5a2",
	"cycle-cover/sparse-store":        "826dbf797a038cde",
	"degree-doubling/dense-store":     "d28e3ffd696393f9",
	"degree-doubling/faults":          "0771e46a97a94110",
	"degree-doubling/gnp":             "a0c5a203a5478e82",
	"degree-doubling/rgg":             "b4013c6ab93e2ddc",
	"degree-doubling/sparse-store":    "ca0c26faad107169",
	"fast-global-line/dense-store":    "492fb339037415cf",
	"fast-global-line/faults":         "287d779e55484be1",
	"fast-global-line/gnp":            "d4f3a98937f83449",
	"fast-global-line/rgg":            "c8dbb4cb74eede03",
	"fast-global-line/sparse-store":   "62e5fc0554d5d593",
	"faster-global-line/dense-store":  "35ec97a874776fdf",
	"faster-global-line/faults":       "7911aae22af7580a",
	"faster-global-line/gnp":          "801e66da1ab06e19",
	"faster-global-line/rgg":          "847726dd4a81a4c2",
	"faster-global-line/sparse-store": "381d148100407bc7",
	"global-ring/dense-store":         "f0ecbfaa4a7ea223",
	"global-ring/faults":              "c2824aa4e3d1d9b1",
	"global-ring/gnp":                 "75ca1a1ebe3bd1c0",
	"global-ring/rgg":                 "9e97d1ebf0ecc117",
	"global-ring/sparse-store":        "30269f443531bc24",
	"global-star/dense-store":         "f2c3046cb01fcf83",
	"global-star/faults":              "78650a6219990c00",
	"global-star/gnp":                 "84802030a26a58fe",
	"global-star/rgg":                 "2df903cda30519bf",
	"global-star/sparse-store":        "ad400cd8b237eece",
	"simple-global-line/dense-store":  "b8a20b408f2a3903",
	"simple-global-line/faults":       "dfe4e983c88eb8b0",
	"simple-global-line/gnp":          "ea715c241b5f6c91",
	"simple-global-line/rgg":          "41b084cefbbad8cd",
	"simple-global-line/sparse-store": "dc61b7067d876a3c",
	"spanning-net/dense-store":        "90d1ca8291118111",
	"spanning-net/faults":             "f9970c6b38dfab7e",
	"spanning-net/gnp":                "a1ea085c04179645",
	"spanning-net/rgg":                "0d46bce830d13def",
	"spanning-net/sparse-store":       "50bdfc1a26b70ad1",
}

// sparsePinCase is one pinned run shape.
type sparsePinCase struct {
	name     string
	n        int
	maxSteps int64
	topology string // TopologySpec flag form, "" for complete
	faults   string // FaultPlan flag form, "" for none
	seeds    []uint64
}

var sparsePinCases = []sparsePinCase{
	{name: "dense-store", n: 24, maxSteps: 1 << 18, seeds: []uint64{1, 2, 3}},
	{name: "sparse-store", n: 4100, maxSteps: 1 << 15, seeds: []uint64{1}},
	{name: "gnp", n: 24, maxSteps: 1 << 17, topology: "gnp@0.4", seeds: []uint64{1, 2}},
	{name: "rgg", n: 24, maxSteps: 1 << 17, topology: "rgg@0.5", seeds: []uint64{1, 2}},
	{name: "faults", n: 24, maxSteps: 1 << 17, faults: "crash@40,edge@90x2,reset@140,crash@200", seeds: []uint64{1, 2}},
}

// sparsePinDigest hashes the fields a census-index change could move.
func sparsePinDigest(runs []core.Result) string {
	h := sha256.New()
	for _, r := range runs {
		fmt.Fprintf(h, "%d %d %d %d %t %d %d %d|", r.Steps, r.ConvergenceTime, r.EffectiveSteps,
			r.EdgeChanges, r.Converged, r.Metrics.Landings, r.Metrics.SampleRejections, r.Metrics.SampleFallbacks)
		h.Write([]byte(r.Final.Fingerprint()))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func TestSparseRunsPinned(t *testing.T) {
	t.Parallel()
	got := make(map[string]string)
	for _, name := range protocols.Names() {
		c, err := protocols.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, pc := range sparsePinCases {
			key := name + "/" + pc.name
			var sparseRuns, batchRuns []core.Result
			for _, seed := range pc.seeds {
				sparseRuns = append(sparseRuns, sparsePinRun(t, c, name, pc, seed, core.EngineSparse))
				batch := sparsePinRun(t, c, name, pc, seed, core.EngineBatch)
				if m := batch.Metrics; m.ExactFallbackLandings != m.Landings || m.BucketDraws != 0 {
					t.Fatalf("%s seed %d: batch run left the exact route (%d of %d landings exact, %d bucket draws)",
						key, seed, m.ExactFallbackLandings, m.Landings, m.BucketDraws)
				}
				batchRuns = append(batchRuns, batch)
			}
			got[key] = sparsePinDigest(sparseRuns)
			if b := sparsePinDigest(batchRuns); b != got[key] {
				t.Errorf("%s: batch exact route digest %s, sparse %s", key, b, got[key])
			}
		}
	}
	var diff []string
	for key, d := range got {
		if sparsePinDigests[key] != d {
			diff = append(diff, key)
		}
	}
	if len(diff) == 0 {
		return
	}
	sort.Strings(diff)
	keys := make([]string, 0, len(got))
	for key := range got {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var table strings.Builder
	for _, key := range keys {
		fmt.Fprintf(&table, "\t%q: %q,\n", key, got[key])
	}
	t.Fatalf("sparse run digests changed for %v; current table:\n%s", diff, table.String())
}

func sparsePinRun(t *testing.T, c protocols.Constructor, name string, pc sparsePinCase, seed uint64, engine core.Engine) core.Result {
	t.Helper()
	proto := c.Proto
	opts := core.Options{Seed: seed, Engine: engine, Detector: core.QuiescenceDetector(), MaxSteps: pc.maxSteps}
	if pc.name == "dense-store" {
		// The registered detector where its checks are cheap; the other
		// cases stop on quiescence (the target predicates assume the
		// complete graph and no faults, and scan O(n²) at n > 4096).
		opts.Detector = c.Detector
	}
	if pc.topology != "" {
		spec, err := core.ParseTopologySpec(pc.topology)
		if err != nil {
			t.Fatal(err)
		}
		if opts.Topology, err = spec.Realize(pc.n, seed); err != nil {
			t.Fatal(err)
		}
	}
	if pc.faults != "" {
		plan, err := scenario.ParsePlan(pc.faults)
		if err != nil {
			t.Fatal(err)
		}
		plan.Seed = 11
		pr, err := plan.Prepare(proto)
		if err != nil {
			t.Fatal(err)
		}
		proto = pr.Proto
		opts.Injector = pr.NewInjection(seed)
	}
	if name == "degree-doubling" {
		// Its all-q0 start is already stable; run the registered
		// non-uniform initial instead.
		initial, err := protocols.DegreeDoublingInitial(proto, pc.n)
		if err != nil {
			t.Fatal(err)
		}
		opts.Initial = initial
	}
	if engine == core.EngineBatch && opts.Topology == nil && opts.Injector == nil {
		opts.Observer = pinObserver{}
	}
	res, err := core.Run(proto, pc.n, opts)
	if err != nil {
		t.Fatalf("%s/%s seed %d on %s: %v", name, pc.name, seed, engine, err)
	}
	return res
}

// pinObserver forces EngineBatch onto its exact route without
// observing anything.
type pinObserver struct{}

func (pinObserver) ObserveStep(int64, int, int, bool, *core.Config) {}
