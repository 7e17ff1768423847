package experiments

import (
	"testing"

	"wavnet/internal/sim"
)

// TestServiceFailoverSmallScale runs the service experiment's smallest
// point and checks the acceptance properties: the VIP recovers after
// the active backend's isolation, the client-observed failover stays
// within the probe fall budget plus one request timeout and pacing
// interval, exactly one withdrawal moved traffic, and the unnamed
// witness broker held zero tenant records.
func TestServiceFailoverSmallScale(t *testing.T) {
	row, err := ServiceOnce(quick(), 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if row.Failover <= 0 {
		t.Fatalf("failover time %v", row.Failover)
	}
	// Client pings pace at 200 ms with a 500 ms timeout; the observed
	// outage can trail detection by at most one in-flight request.
	slack := 500*sim.Millisecond + 200*sim.Millisecond
	if row.Failover > row.Budget+slack {
		t.Fatalf("client-observed failover %v beyond budget %v + slack %v",
			row.Failover, row.Budget, slack)
	}
	if row.Withdrawals != 1 || row.Failovers != 1 {
		t.Fatalf("withdrawals=%d failovers=%d, want exactly 1 each", row.Withdrawals, row.Failovers)
	}
	if ratio := row.SuccessRatio(); ratio < 0.9 {
		t.Fatalf("request success %.3f, want >=0.9 for a %v outage", ratio, row.Failover)
	}
	if row.Stray != 0 {
		t.Fatalf("witness broker holds %d tenant records, want 0", row.Stray)
	}
}

// TestServiceFailoverLongerFall: a larger fall budget must not change
// the outcome, only stretch the detection window proportionally.
func TestServiceFailoverLongerFall(t *testing.T) {
	short, err := ServiceOnce(quick(), 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	long, err := ServiceOnce(quick(), 2, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if long.Failover <= short.Failover {
		t.Fatalf("fall=5 failover %v not beyond fall=2's %v", long.Failover, short.Failover)
	}
	if long.SuccessRatio() >= short.SuccessRatio() {
		t.Fatalf("fall=5 success %.3f not below fall=2's %.3f",
			long.SuccessRatio(), short.SuccessRatio())
	}
}
