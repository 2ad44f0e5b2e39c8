package sea

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestGoVetPasses keeps the whole module go vet clean. Running it inside the
// test suite keeps the check active even where the CI vet step is skipped.
func TestGoVetPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go vet in -short mode")
	}
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := exec.LookPath(goBin); err != nil {
		if goBin, err = exec.LookPath("go"); err != nil {
			t.Skip("go binary not found")
		}
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... failed: %v\n%s", err, out)
	}
}
