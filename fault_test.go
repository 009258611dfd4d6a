package bufir

// Public-API tests of the fault-tolerant I/O path: Index.InjectFaults
// installing a seeded schedule, FaultToleranceOptions driving the
// engine's retry loop, EvalOptions.FaultBudget degrading instead of
// failing, and the serving counters keeping their invariants. These
// mirror the README's fault-injection example.

import (
	"context"
	"testing"
	"time"
)

func TestFaultInjectionPublicAPI(t *testing.T) {
	col, ix := testIndex(t)
	if err := ix.InjectFaults("transient:prob=0.1", 7); err != nil {
		t.Fatal(err)
	}
	eng, err := ix.NewEngine(EngineConfig{
		EvalOptions: EvalOptions{Algorithm: BAF, FaultBudget: 2},
		Workers:     4,
		Shards:      2,
		BufferPages: 64,
		Fault: FaultToleranceOptions{
			Retries:      3,
			RetryBackoff: 50 * time.Microsecond,
			VictimWait:   time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var tickets []*Ticket
	for i := 0; i < 60; i++ {
		q, err := ix.TopicQuery(col.Topics[i%len(col.Topics)])
		if err != nil {
			t.Fatal(err)
		}
		tk, err := eng.SubmitContext(context.Background(), i%6, q)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	delivered := 0
	for _, tk := range tickets {
		if _, err := tk.Wait(); err == nil {
			delivered++
		}
	}

	st := eng.Stats()
	if got := st.Completed + st.Timeouts + st.Canceled + st.Errors + st.Degraded; got != st.Queries {
		t.Errorf("outcome buckets sum to %d, want Queries=%d (%+v)", got, st.Queries, st)
	}
	if float64(delivered) < 0.99*float64(len(tickets)) {
		t.Errorf("delivered %d/%d, want >= 99%%", delivered, len(tickets))
	}
	if fst := ix.FaultStats(); fst.Transient == 0 {
		t.Error("FaultStats reports no injected faults at prob=0.1")
	} else if st.Retries == 0 {
		t.Error("Retries counter is zero despite injected faults")
	}
}

func TestInjectFaultsRejectsBadSchedule(t *testing.T) {
	_, ix := testIndex(t)
	if err := ix.InjectFaults("transient:prob=2", 1); err == nil {
		t.Error("InjectFaults accepted prob=2")
	}
	if fst := ix.FaultStats(); fst != (FaultStats{}) {
		t.Errorf("FaultStats on a fault-free index = %+v, want zero", fst)
	}
}
