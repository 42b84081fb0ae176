// Package golden pins test artifacts by SHA-256 digest. A digest file
// holds one "<hex>  <key>" line per artifact, sorted by key, so a pinned
// multi-megabyte trace costs one line of testdata and a mismatch names
// exactly which artifact moved.
package golden

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Pin checks the SHA-256 of data against the digest recorded under key
// in the digest file at path. With update set it records the digest
// instead (creating the file if needed), which is how a deliberate
// artifact change is re-pinned. An empty artifact always fails: pinning
// it would let a load that generates nothing pass.
func Pin(t testing.TB, path, key string, data []byte, update bool) {
	t.Helper()
	if len(data) == 0 {
		t.Fatalf("%s: empty artifact", key)
	}
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	pinned, err := read(path)
	if err != nil && !(update && errors.Is(err, os.ErrNotExist)) {
		t.Fatalf("%s: %v (regenerate with -update)", key, err)
	}
	if update {
		pinned[key] = got
		if err := write(path, pinned); err != nil {
			t.Fatal(err)
		}
		return
	}
	switch want, ok := pinned[key]; {
	case !ok:
		t.Errorf("%s: no digest pinned in %s (regenerate with -update)", key, path)
	case want != got:
		t.Errorf("%s: sha256 %s, pinned %s", key, got, want)
	}
}

func read(path string) (map[string]string, error) {
	pinned := make(map[string]string)
	raw, err := os.ReadFile(path)
	if err != nil {
		return pinned, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			pinned[f[1]] = f[0]
		}
	}
	return pinned, nil
}

func write(path string, pinned map[string]string) error {
	keys := make([]string, 0, len(pinned))
	for k := range pinned {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(pinned[k] + "  " + k + "\n")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
