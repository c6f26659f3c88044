package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"mmjoin/internal/loadgen"
	"mmjoin/internal/mstore"
	"mmjoin/internal/service"
)

// The service panel turns the query service's SLO behaviour into a
// tracked regression surface: it boots `mmdb serve` in-process over a
// throwaway database, probes its join capacity, then sweeps open-loop
// Poisson traffic across offered-load multipliers of that capacity for
// two mixes — lookup-heavy with Zipf key skew, and join-heavy across all
// four algorithms plus the planner — recording p99-vs-offered-load and
// 429-rate-vs-offered-load curves into BENCH_service.json. Every point
// cross-checks client-observed outcome counts against the server's
// /stats counters and the panel aborts on any mismatch, so the tracked
// numbers are guaranteed self-consistent.

// servicePanelSlots is how many default-grant joins the panel's budget
// admits concurrently; the queue takes twice that before 429s begin.
const servicePanelSlots = 4

// servicePanelMultipliers scale the probed capacity into the offered-load
// axis: comfortably under, near, and well past saturation.
var servicePanelMultipliers = []float64{0.5, 1, 2, 4}

func runServicePanel(objects, d int, pointDur time.Duration, seed int64, out string) error {
	dir, err := os.MkdirTemp("", "mmjoin-bench-service")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Build the database, then let the server map it afresh.
	dbDir := filepath.Join(dir, "db")
	db, err := mstore.CreateDB(dbDir, d, objects, objects, 64, seed)
	if err != nil {
		return err
	}
	db.Close()

	const grant = 1 << 20
	srv, err := service.New(service.Config{
		Dir: dbDir, D: d,
		MemBudget:      servicePanelSlots * grant,
		DefaultGrant:   grant,
		MaxQueue:       2 * servicePanelSlots,
		CalibrationOps: 200,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String() + "/v1"
	ctx := context.Background()

	// Probe the mean admitted-join service time with a one-client closed
	// loop; it anchors the offered-load axis to this host's actual
	// capacity, so the curves bend in the same places on fast and slow
	// machines alike.
	probe, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL: base, Seed: seed, Mode: loadgen.Closed,
		Duration: 800 * time.Millisecond, Clients: 1, ThinkMean: time.Microsecond,
		Mix: loadgen.Mix{LookupFraction: 0},
	})
	if err != nil {
		return fmt.Errorf("service panel: capacity probe: %w", err)
	}
	okJoins := probe.Latency(loadgen.KindJoin, loadgen.OutcomeOK)
	if okJoins.Count() == 0 {
		return fmt.Errorf("service panel: capacity probe completed no joins")
	}
	meanJoin := time.Duration(okJoins.Mean())
	if meanJoin <= 0 {
		meanJoin = time.Millisecond
	}
	joinCapacity := float64(servicePanelSlots) / meanJoin.Seconds()
	fmt.Printf("service panel: mean join %v ⇒ ~%.0f joins/sec capacity (%d slots)\n",
		meanJoin.Round(time.Microsecond), joinCapacity, servicePanelSlots)

	mixes := []struct {
		name string
		mix  loadgen.Mix
	}{
		{"lookup-heavy-zipf", loadgen.Mix{LookupFraction: 0.9, ZipfS: 1.3}},
		{"join-heavy-mixed-alg", loadgen.Mix{LookupFraction: 0.2, ZipfS: 1.2}},
	}
	rep := &loadgen.Report{
		Schema: loadgen.ReportSchema,
		Host:   loadgen.CurrentHost(),
		Seed:   seed,
		DB:     loadgen.DBInfo{Objects: objects, D: d},
		Server: loadgen.ServerInfo{
			MemBudgetBytes: servicePanelSlots * grant,
			MaxQueue:       2 * servicePanelSlots,
			Workers:        probe.StatsAfter.Pool.Workers,
		},
		Note: fmt.Sprintf("open-loop Poisson sweeps at %v per point; offered rates are "+
			"%.2v × the probed join capacity (mean admitted join %v on this host); latency "+
			"measured from intended send time (coordinated-omission-safe)",
			pointDur, servicePanelMultipliers, meanJoin.Round(time.Microsecond)),
	}

	for _, m := range mixes {
		// The join fraction of the mix is what consumes admission slots,
		// so saturation arrives when rate × joinFrac reaches the join
		// capacity.
		joinFrac := 1 - m.mix.LookupFraction
		rates := make([]float64, len(servicePanelMultipliers))
		for i, mult := range servicePanelMultipliers {
			rates[i] = mult * joinCapacity / joinFrac
		}
		cfg := loadgen.Config{
			BaseURL: base, Seed: seed, Mode: loadgen.OpenPoisson,
			Duration: pointDur, Mix: m.mix,
		}
		pts, _, err := loadgen.RunSweep(ctx, cfg, rates)
		if err != nil {
			return fmt.Errorf("service panel: mix %s: %w", m.name, err)
		}
		for i, pt := range pts {
			if !pt.Reconciled {
				return fmt.Errorf("service panel: mix %s rate %.0f/s: client and /stats counters diverge",
					m.name, rates[i])
			}
			fmt.Printf("service %-20s rate %6.0f/s: ok %5d  429-rate %.3f  p99 %8v\n",
				m.name, pt.OfferedRate, pt.OK, pt.Rate429,
				time.Duration(pt.P99Ns).Round(time.Microsecond))
		}
		rep.Mixes = append(rep.Mixes, loadgen.MixCurveFor(m.name, cfg, pts))
	}

	if err := rep.WriteFile(out); err != nil {
		return err
	}
	fmt.Printf("service SLO baseline written to %s\n", out)
	return nil
}
