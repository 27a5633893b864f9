package retro

import (
	"os/exec"
	"testing"
)

// TestBenchModuleVets vets the end-to-end benchmark under bench/. It is a
// Go module of its own that imports this one, so ./... never reaches it,
// and a change here that breaks it would otherwise only show in CI's
// bench job.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("vetting the bench module takes seconds")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	out, err := exec.Command(goBin, "-C", "bench", "vet", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go -C bench vet ./...: %v\n%s", err, out)
	}
}
