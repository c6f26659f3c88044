package conformance

import (
	"encoding/json"
	"fmt"

	"mmjoin/internal/join"
	"mmjoin/internal/machine"
	"mmjoin/internal/relation"
	"mmjoin/internal/vm"
)

// CorpusEntry is one run of the deterministic-replay corpus: a small
// fixed-seed workload plus the exact parameters of one join execution.
// Everything influencing the run is spelled out here so the committed
// snapshot pins the whole stack (workload generator, disk model, pager,
// segment manager, kernel scheduling, algorithm).
type CorpusEntry struct {
	Name    string
	Objects int
	D       int
	Seed    int64
	Dist    relation.Distribution
	Theta   float64 // Zipf
	HotFrac float64 // HotPartition
	Alg     join.Algorithm
	Frac    float64 // MRproc / (|R|·r)
	Policy  vm.Policy
	Naive   bool // Stagger off: every Rproc walks the S partitions in the same order
	Sync    bool // SyncPhases: a barrier after every pass-1 phase
}

// Corpus returns the replay corpus. Entries are chosen to exercise every
// algorithm, every pager policy, skewed reference distributions, and —
// through the low-memory Grace and sort-merge runs — heavy deferred
// write-back traffic, so a regression in any disk/vm mechanism (for
// example the flusher's re-dirty-during-flush handling) perturbs at
// least one snapshot. The last six pin the branches the algorithms'
// shared partitioning skeleton merges: synchronized against free-running
// phases, the naive phase order, hybrid hash under skew and with
// everything resident (K = 0), and D = 1, which has no pass-1 phases.
func Corpus() []CorpusEntry {
	return []CorpusEntry{
		{Name: "nl-uniform-d4", Objects: 4000, D: 4, Seed: 7, Alg: join.NestedLoops, Frac: 0.15},
		{Name: "sm-uniform-multipass-d4", Objects: 4000, D: 4, Seed: 7, Alg: join.SortMerge, Frac: 0.02},
		{Name: "grace-knee-d4", Objects: 4000, D: 4, Seed: 7, Alg: join.Grace, Frac: 0.01},
		{Name: "hybrid-d4", Objects: 4000, D: 4, Seed: 7, Alg: join.HybridHash, Frac: 0.03},
		{Name: "traditional-d2", Objects: 2000, D: 2, Seed: 11, Alg: join.TraditionalGrace, Frac: 0.05},
		{Name: "grace-zipf-d4", Objects: 4000, D: 4, Seed: 7, Dist: relation.Zipf, Theta: 1.5,
			Alg: join.Grace, Frac: 0.02},
		{Name: "sm-fifo-d2", Objects: 2000, D: 2, Seed: 11, Alg: join.SortMerge, Frac: 0.02,
			Policy: vm.FIFO},
		{Name: "nl-hot-clock-d4", Objects: 4000, D: 4, Seed: 7, Dist: relation.HotPartition,
			HotFrac: 0.4, Alg: join.NestedLoops, Frac: 0.10, Policy: vm.Clock},
		{Name: "nl-sync-d4", Objects: 4000, D: 4, Seed: 7, Alg: join.NestedLoops, Frac: 0.15, Sync: true},
		{Name: "nl-naive-d4", Objects: 4000, D: 4, Seed: 7, Alg: join.NestedLoops, Frac: 0.15, Naive: true},
		{Name: "sm-naive-d4", Objects: 4000, D: 4, Seed: 7, Alg: join.SortMerge, Frac: 0.02, Naive: true},
		{Name: "hybrid-zipf-d4", Objects: 4000, D: 4, Seed: 7, Dist: relation.Zipf, Theta: 1.5,
			Alg: join.HybridHash, Frac: 0.03},
		{Name: "hybrid-ample-d4", Objects: 4000, D: 4, Seed: 7, Alg: join.HybridHash, Frac: 0.60},
		{Name: "grace-d1", Objects: 2000, D: 1, Seed: 11, Alg: join.Grace, Frac: 0.02},
	}
}

// Spec expands the entry into a workload specification.
func (e CorpusEntry) Spec() relation.Spec {
	spec := relation.DefaultSpec()
	spec.NR, spec.NS = e.Objects, e.Objects
	spec.D = e.D
	spec.Seed = e.Seed
	spec.Dist = e.Dist
	spec.ZipfTheta = e.Theta
	spec.HotFrac = e.HotFrac
	return spec
}

// Run executes the entry on a fresh machine and returns the result with
// the workload it joined.
func (e CorpusEntry) Run() (*join.Result, *relation.Workload, error) {
	cfg := machine.DefaultConfig()
	cfg.D = e.D
	cfg.Disk.Blocks = 40000
	w, err := relation.Generate(e.Spec())
	if err != nil {
		return nil, nil, fmt.Errorf("conformance: corpus %s: %w", e.Name, err)
	}
	mem := int64(e.Frac * float64(int64(e.Objects)*int64(w.Spec.RSize)))
	res, err := join.Request{
		Algorithm: e.Alg,
		Config:    cfg,
		Params: join.Params{Workload: w, MRproc: mem, Stagger: !e.Naive, SyncPhases: e.Sync,
			Policy: e.Policy},
	}.Run()
	if err != nil {
		return nil, nil, fmt.Errorf("conformance: corpus %s: %w", e.Name, err)
	}
	return res, w, nil
}

// Snapshot is the committed form of one corpus run: the entry's name and
// algorithm spelled out, plus the complete Result. Every field is
// integer-valued (virtual times are nanosecond counts), so snapshots are
// bit-for-bit reproducible across platforms.
type Snapshot struct {
	Entry     string      `json:"entry"`
	Algorithm string      `json:"algorithm"`
	Result    join.Result `json:"result"`
}

// SnapshotOf converts a corpus run to its committed form.
func SnapshotOf(e CorpusEntry, res *join.Result) Snapshot {
	return Snapshot{Entry: e.Name, Algorithm: e.Alg.String(), Result: *res}
}

// Encode renders the snapshot as the canonical golden-file bytes.
func (s Snapshot) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
