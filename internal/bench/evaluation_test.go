package bench

import (
	"os"
	"testing"
)

// TestAllMatchesEvaluation pins the committed EVALUATION.txt: `fpgacnn all`
// prints exactly All(), and that report must not drift under a refactor.
// If a change is meant to move a figure, regenerate the file with
// `go run ./cmd/fpgacnn all > EVALUATION.txt` and say why.
func TestAllMatchesEvaluation(t *testing.T) {
	want, err := os.ReadFile("../../EVALUATION.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	// Name the first differing line; the whole report is too long to print.
	line, i := 1, 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		if got[i] == '\n' {
			line++
		}
		i++
	}
	t.Fatalf("All() differs from EVALUATION.txt at line %d (%d vs %d bytes)", line, len(got), len(want))
}
