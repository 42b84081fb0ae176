package cmp

import (
	"flag"
	"fmt"
	"testing"

	"github.com/disco-sim/disco/internal/golden"
)

var updateDigests = flag.Bool("update", false, "re-pin testdata/results.sha256 from the current simulator")

// TestResultsDigest pins a full-system DISCO run's complete Results —
// latencies, cache and DRAM counters, network stats, energy — by
// SHA-256, so an engine refactor that claims byte identity is checked
// end to end, not only at the NoC boundary. Re-pin a deliberate model
// change with: go test ./internal/cmp -run Digest -update
func TestResultsDigest(t *testing.T) {
	r := run(t, quickCfg(DISCO, "ferret"))
	if r.Fault != nil {
		t.Fatal("fault-free run reported fault counters") // %+v would print the pointer
	}
	golden.Pin(t, "testdata/results.sha256", "disco-ferret", []byte(fmt.Sprintf("%+v", r)), *updateDigests)
}
