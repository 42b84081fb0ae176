package cmp

import (
	"errors"
	"strings"
	"testing"

	"github.com/disco-sim/disco/internal/fault"
)

// TestWatchdogDetectsWedge wedges the network — every credit is lost and
// never restored within the run — and checks the progress watchdog fires
// a typed *StallError with a populated diagnostic snapshot, long before
// the MaxCycles budget.
func TestWatchdogDetectsWedge(t *testing.T) {
	cfg := quickCfg(DISCO, "bodytrack")
	cfg.Fault = &fault.Spec{Seed: 1, CreditRate: 1, CreditRecovery: 50_000_000}
	cfg.StallWindow = 2_000
	cfg.MaxCycles = 5_000_000
	sys, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, err = sys.Run()
	if err == nil {
		t.Fatal("run with every credit lost should stall")
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("want *StallError, got %T: %v", err, err)
	}
	if se.Reason == "" || se.Window == 0 {
		t.Errorf("stall error missing reason/window: %+v", se)
	}
	if se.Cycle >= cfg.MaxCycles {
		t.Errorf("watchdog fired at cycle %d, not before the %d budget", se.Cycle, cfg.MaxCycles)
	}
	if se.Snapshot == nil {
		t.Fatal("stall error carries no snapshot")
	}
	if se.Snapshot.Fault == nil || se.Snapshot.Fault.CreditsOutstanding == 0 {
		t.Errorf("snapshot should show outstanding lost credits: %+v", se.Snapshot.Fault)
	}
	text := se.Snapshot.String()
	if !strings.Contains(text, "lost-credits") {
		t.Errorf("snapshot rendering should show lost credits:\n%s", text)
	}
	if !strings.Contains(err.Error(), "no forward progress") {
		t.Errorf("error should name the stall: %v", err)
	}
}

// TestCycleBudgetIsTyped checks the MaxCycles abort reports through the
// same *StallError type (with a snapshot) instead of a bare string.
func TestCycleBudgetIsTyped(t *testing.T) {
	cfg := quickCfg(Baseline, "bodytrack")
	cfg.MaxCycles = 500 // far too few to finish
	cfg.StallWindow = 1_000_000
	sys, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, err = sys.Run()
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("want *StallError for budget exhaustion, got %T: %v", err, err)
	}
	if se.Snapshot == nil || !strings.Contains(se.Reason, "budget") {
		t.Errorf("budget stall missing snapshot or reason: %+v", se)
	}
}

// TestChaosRunCompletes is the acceptance scenario: with all three fault
// classes armed the full system must complete without panics and report
// nonzero recovery counters, and the run must stay deterministic.
func TestChaosRunCompletes(t *testing.T) {
	runOnce := func() Results {
		cfg := quickCfg(DISCO, "bodytrack")
		cfg.Fault = &fault.Spec{Seed: 7, EngineRate: 0.5, EngineStuck: 16, PayloadRate: 0.01, CreditRate: 0.005}
		return run(t, cfg)
	}
	r := runOnce()
	if r.Fault == nil {
		t.Fatal("fault-armed run reported no fault stats")
	}
	if r.Fault.EngineFaults == 0 || r.Fault.PayloadFlips == 0 || r.Fault.CreditsDropped == 0 {
		t.Fatalf("chaos run should exercise all three fault classes: %s", r.Fault)
	}
	if r.Fault.BreakerTrips == 0 {
		t.Errorf("engine faults at rate 0.5 should trip the circuit breaker: %s", r.Fault)
	}
	if r.Fault.Recoveries() == 0 {
		t.Errorf("chaos run recovered nothing: %s", r.Fault)
	}
	if !strings.Contains(r.Detailed(), "fault ") {
		t.Error("Detailed() should include the fault line when armed")
	}
	r2 := runOnce()
	if r.Cycles != r2.Cycles || *r.Fault != *r2.Fault {
		t.Errorf("chaos runs with the same seed diverge:\n  %s\n  %s", r.Fault, r2.Fault)
	}
	t.Logf("chaos: cycles=%d %s", r.Cycles, r.Fault)
}

// TestFaultFreeResultsIdentical is the cmp-level zero-overhead-off gate:
// a nil fault spec and a silent one must produce identical Results.
func TestFaultFreeResultsIdentical(t *testing.T) {
	base := run(t, quickCfg(DISCO, "bodytrack"))
	cfg := quickCfg(DISCO, "bodytrack")
	cfg.Fault = &fault.Spec{} // compiled in, disabled
	silent := run(t, cfg)
	if silent.Fault != nil {
		t.Error("silent spec must not produce fault stats")
	}
	if base.Cycles != silent.Cycles || base.AvgMissLatency != silent.AvgMissLatency ||
		base.Net != silent.Net {
		t.Errorf("silent fault spec changed the run: cycles %d vs %d", base.Cycles, silent.Cycles)
	}
}

// TestHealthyRunNoStall pins the watchdog's sampling point: a healthy
// run must never trip a *StallError, even with a watchdog window tight
// enough that any mis-sampled (frozen-looking) signature would fire it.
func TestHealthyRunNoStall(t *testing.T) {
	cfg := quickCfg(DISCO, "bodytrack")
	cfg.StallWindow = 4096
	sys, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r, err := sys.Run()
	var se *StallError
	if errors.As(err, &se) {
		t.Fatalf("healthy run tripped the watchdog: %v", se)
	}
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Cycles == 0 {
		t.Error("empty results")
	}
}
