package lockmgr

import (
	"testing"

	"repro/internal/latch"
	"repro/internal/obs"
)

// TestLatchDecisionLogRecordsRetunes checks the OnTune wiring: a budget
// change made by a shard latch's controller lands in the decision log as a
// replayable KindLatchTune record carrying the controller's inputs. The
// retune is driven directly (hold EWMA past the park threshold → budget
// collapses to 0) so the test is deterministic on any core count; the
// TuneStride trigger under real contention is covered by internal/latch's
// own tests.
func TestLatchDecisionLogRecordsRetunes(t *testing.T) {
	m := New(Config{InitialPages: 1024, Shards: 2})
	dl := obs.NewDecisionLog(64)
	m.SetLatchDecisionLog(dl)

	s := &m.shards[1]
	// A hold EWMA well past the park threshold forces target 0, which
	// differs from the cold-start DefaultBudget, so the retune must fire
	// the hook exactly once.
	s.mu.NoteHold(1_000_000)
	s.mu.Retune(8)

	decs := dl.Query(obs.KindLatchTune, 0)
	if len(decs) != 1 {
		t.Fatalf("expected exactly one latch-tune decision, got %d", len(decs))
	}
	d := decs[0]
	if d.Shard != 1 {
		t.Fatalf("decision attributed to shard %d, want 1", d.Shard)
	}
	if d.SpinBudgetBefore != latch.DefaultBudget || d.SpinBudgetAfter != 0 {
		t.Fatalf("budget transition %d→%d, want %d→0",
			d.SpinBudgetBefore, d.SpinBudgetAfter, latch.DefaultBudget)
	}
	if d.Action != "latch-spin-down" || d.HoldEwmaNs == 0 {
		t.Fatalf("malformed latch-tune decision: %+v", d)
	}

	// A retune that leaves the budget unchanged must stay silent.
	s.mu.Retune(8)
	if n := len(dl.Query(obs.KindLatchTune, 0)); n != 1 {
		t.Fatalf("unchanged retune added decisions: %d", n)
	}
}
