package dse

// Cross-board transfer tuning. A guided run serializes its fitted cost model
// and top-K evaluation history keyed by the space signature; a later run on
// a *different* board warm-starts from it — population seeded from the top-K
// points, model seeded from the transferred weights — so the new search
// begins where the old one ended instead of from the heuristic. The space
// signature is board-independent (space.go), so the coordinate systems match
// whenever the same lowered network is searched; boards only differ in the
// feasible screen and the evaluator, which is exactly what transfer re-learns.

import (
	"encoding/json"
	"fmt"
	"os"
)

// TransferModel is the serializable fitted cost model.
type TransferModel struct {
	TimeWeights []float64 `json:"time_weights,omitempty"`
	FeasWeights []float64 `json:"feas_weights,omitempty"`
	MaxTimeUS   float64   `json:"max_time_us,omitempty"`
}

// TransferEntry is one remembered evaluation.
type TransferEntry struct {
	Key           string  `json:"key"`
	TimeUS        float64 `json:"time_us"`
	Synthesizable bool    `json:"synthesizable"`
}

// TransferState is the serialized search state of one guided run: enough to
// warm-start another board's search on the same network.
type TransferState struct {
	Net      string          `json:"net"`
	Board    string          `json:"board"`
	SpaceSig string          `json:"space_sig"`
	Model    TransferModel   `json:"model"`
	TopK     []TransferEntry `json:"top_k"`
}

// TransferState extracts the serializable search state from a finished run,
// keeping the top k ranked candidates (all of them when k <= 0).
func (r *GuidedResult) TransferState(k int) *TransferState {
	t := &TransferState{
		Net:      r.Net,
		Board:    r.Board.Name,
		SpaceSig: r.SpaceSig,
		Model:    r.Model,
	}
	for _, c := range r.Ranked {
		if k > 0 && len(t.TopK) >= k {
			break
		}
		t.TopK = append(t.TopK, TransferEntry{Key: c.Key, TimeUS: c.TimeUS, Synthesizable: c.Synthesizable})
	}
	return t
}

// SaveTransfer writes the state as indented JSON (deterministic: fixed field
// order, no timestamps).
func SaveTransfer(path string, t *TransferState) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadTransfer reads a state written by SaveTransfer.
func LoadTransfer(path string) (*TransferState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t := &TransferState{}
	if err := json.Unmarshal(data, t); err != nil {
		return nil, fmt.Errorf("dse: transfer state %s: %w", path, err)
	}
	return t, nil
}
