package disco_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// makeCall matches a `make <target>` invocation inside a workflow step.
var makeCall = regexp.MustCompile(`(?:^|[\s;&|(])make\s+([A-Za-z0-9_-]+)`)

// TestCIWorkflowRunsMakeTargets keeps the CI workflow and `make ci` from
// drifting apart: every prerequisite of the Makefile's ci target must be
// invoked as `make <target>` by some step of .github/workflows/ci.yml,
// so CI runs the Makefile's recipe rather than a re-typed copy of it.
func TestCIWorkflowRunsMakeTargets(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var targets []string
	for _, line := range strings.Split(string(mk), "\n") {
		if rest, ok := strings.CutPrefix(line, "ci:"); ok {
			targets = strings.Fields(rest)
		}
	}
	if len(targets) == 0 {
		t.Fatal("Makefile has no ci target with prerequisites")
	}
	wf, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	invoked := map[string]bool{}
	for _, line := range strings.Split(string(wf), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue // a comment naming a target does not run it
		}
		for _, m := range makeCall.FindAllStringSubmatch(line, -1) {
			invoked[m[1]] = true
		}
	}
	for _, tgt := range targets {
		if !invoked[tgt] {
			t.Errorf("make ci runs %q but no CI workflow step invokes `make %s`", tgt, tgt)
		}
	}
}
