package service

import (
	"fmt"
	"io"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mmjoin/internal/mstore"
)

// newSkewServer builds a server over a database whose R pointers follow
// the hot-key worst case: one S object (partition 0, index 0) owns half
// of all references, the rest spread uniformly.
func newSkewServer(t *testing.T, objects int, cfg Config) *Server {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "db")
	db, err := mstore.CreateDB(dir, 3, objects, objects, 32, 11)
	if err != nil {
		t.Fatal(err)
	}
	// The hot key sits at the END of its partition so hybrid-hash's
	// resident prefix cannot absorb it — it must flow through the
	// overflow buckets like any other skewed reference.
	hot := mstore.SPtr{Part: 0, Off: db.S[0].PtrAt(db.S[0].Count() - 1)}
	n, u := 0, 0
	for _, ri := range db.R {
		for x := 0; x < ri.Count(); x++ {
			if n%2 == 0 {
				mstore.EncodeSPtr(ri.Object(x), hot)
			} else {
				part := u % db.D
				rel := db.S[part]
				mstore.EncodeSPtr(ri.Object(x), mstore.SPtr{
					Part: uint32(part), Off: rel.PtrAt(u % rel.Count()),
				})
				u++
			}
			n++
		}
	}
	db.Close()
	return serveDir(t, dir, cfg)
}

// TestSkewServeGrantBoundedJoin: skewed joins under a small grant, with
// a budget that admits exactly one at a time, return the ground-truth
// pairs and signature for every staging operator, and the admission
// budget is whole again afterwards: the grant charged at admission is
// the only thing held, and it is released exactly once. The store keeps
// its temp arena mapped between joins, so temp_relations_total stops
// rising once the handle is warm: a second round of the same four joins
// creates no arena.
func TestSkewServeGrantBoundedJoin(t *testing.T) {
	const grant = 32 << 10
	s := newSkewServer(t, 6000, Config{MemBudget: grant + 4096, DefaultGrant: grant})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	want := expectedStats(t, s)
	var created [2]int64
	for round := range created {
		for _, alg := range []string{"nested-loops", "sort-merge", "grace", "hybrid-hash"} {
			resp, jr := postJoin(t, ts, JoinRequest{Algorithm: alg, MemBytes: grant})
			if resp.StatusCode != 200 {
				t.Fatalf("%s: status %d", alg, resp.StatusCode)
			}
			if jr.Pairs != want.Pairs || jr.Signature != fmt.Sprintf("%016x", want.Signature) {
				t.Fatalf("%s: result %+v, want %+v", alg, jr, want)
			}
		}
		st := s.StatsSnapshot()
		if st.Admission.UsedBytes != 0 {
			t.Errorf("round %d: admission holds %d bytes after every join returned", round, st.Admission.UsedBytes)
		}
		created[round] = st.Counters["temp_relations_total"]
	}
	if created[0] < 1 || created[0] > 4 || created[1] != created[0] {
		t.Errorf("temp_relations_total = %d after the first round and %d after the second, want 1 to 4 and no rise",
			created[0], created[1])
	}
}

// TestSkewStatsExposeCountersAtZero: the join counters are registered at
// startup so operators see them (at zero) before the first join, and
// the /v1/stats document names none of the probe table's spill,
// stream and renegotiation counters, nor the radix pass count, which no
// longer exist.
func TestSkewStatsExposeCountersAtZero(t *testing.T) {
	s := newTestServer(t, 300, Config{})
	st := s.StatsSnapshot()
	if v, ok := st.Counters["temp_relations_total"]; !ok || v != 0 {
		t.Errorf("counter temp_relations_total = %d (present=%v), want 0 at startup", v, ok)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{
		"spill_restages_total", "spill_restaged_refs_total", "stream_probes_total",
		"grant_renegotiations_total", "grant_renegotiations_denied_total",
		"probe_table_peak_bytes", "renegotiated", "renegotiationsDenied",
		"radix_passes_total",
	} {
		if strings.Contains(string(body), strconv.Quote(gone)) {
			t.Errorf("/v1/stats still names %s", gone)
		}
	}
}
