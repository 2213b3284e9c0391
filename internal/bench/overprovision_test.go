package bench

import (
	"testing"

	"arcs/internal/kernels"
	"arcs/internal/sim"
)

// placeSP places SP class B (96 total steps) on n Crill nodes.
func placeSP(t *testing.T, budgetW float64, n int, arm Arm) (placement, error) {
	t.Helper()
	app, err := kernels.SP(kernels.ClassB)
	if err != nil {
		t.Fatal(err)
	}
	return place(sim.Crill(), app.WithSteps(96), budgetW, n, arm)
}

func mustPlaceSP(t *testing.T, budgetW float64, n int, arm Arm) placement {
	t.Helper()
	out, err := placeSP(t, budgetW, n, arm)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCommModel(t *testing.T) {
	c := DefaultComm()
	if c.PerStepS(1) != 0 {
		t.Errorf("single node has no communication")
	}
	lat := CommModel{LatencyS: 0.001}
	if lat.PerStepS(16) <= lat.PerStepS(4) {
		t.Errorf("latency term must grow with node count")
	}
	// Volume term shrinks: with zero latency, more nodes = less halo.
	v := CommModel{VolumeS: 1}
	if v.PerStepS(27) >= v.PerStepS(8) {
		t.Errorf("halo volume must shrink with node count")
	}
	if got := c.StragglerFactor(1); got != 1 {
		t.Errorf("single node straggler factor = %v", got)
	}
	if c.StragglerFactor(64) <= c.StragglerFactor(4) {
		t.Errorf("straggler margin must grow with node count")
	}
	if (CommModel{}).StragglerFactor(64) != 1 {
		t.Errorf("zero sigma must give factor 1")
	}
}

func TestPlaceValidation(t *testing.T) {
	if _, err := placeSP(t, 1120, 0, ArmDefault); err == nil {
		t.Errorf("zero nodes must fail")
	}
	if _, err := placeSP(t, 0, 8, ArmDefault); err == nil {
		t.Errorf("zero budget must fail")
	}
	// Per-node cap below static power is infeasible: 1120/64 = 17.5W < 32W.
	if _, err := placeSP(t, 1120, 64, ArmDefault); err == nil {
		t.Errorf("cap below static power must fail")
	}
	if _, err := OverProvision(300); err == nil {
		t.Errorf("a sweep with an infeasible node count must fail")
	}
}

func TestPlaceBasics(t *testing.T) {
	out := mustPlaceSP(t, 1120, 16, ArmDefault)
	if out.capW != 70 {
		t.Errorf("per-node cap = %v, want 70", out.capW)
	}
	if out.makespanS <= 0 || out.energyJ <= 0 || out.commS <= 0 {
		t.Errorf("bad result: %+v", out)
	}
}

// TestCapClampsToTDP: a per-node share above TDP runs at TDP, exactly as
// a budget whose share is TDP itself.
func TestCapClampsToTDP(t *testing.T) {
	for _, arm := range []Arm{ArmDefault, ArmOffline} {
		clamped := mustPlaceSP(t, 1120, 4, arm) // 280 W/node > TDP
		exact := mustPlaceSP(t, 460, 4, arm)    // 115 W/node = TDP
		if clamped.capW != 115 || exact.capW != 115 {
			t.Errorf("%v: caps %v and %v, want TDP 115", arm, clamped.capW, exact.capW)
		}
		if clamped != exact {
			t.Errorf("%v: clamped placement %+v differs from the TDP one %+v", arm, clamped, exact)
		}
	}
}

func TestARCSLowersMakespan(t *testing.T) {
	def := mustPlaceSP(t, 1120, 16, ArmDefault)
	tuned := mustPlaceSP(t, 1120, 16, ArmOffline)
	if tuned.makespanS >= def.makespanS {
		t.Errorf("ARCS nodes must finish sooner: %v vs %v", tuned.makespanS, def.makespanS)
	}
	if tuned.energyJ >= def.energyJ {
		t.Errorf("ARCS job should also use less energy: %v vs %v", tuned.energyJ, def.energyJ)
	}
}

func TestStrongScalingTradeOff(t *testing.T) {
	// Doubling nodes halves per-node work but lowers the cap; with this
	// budget the net is still a win at small n, and communication plus the
	// straggler margin keep it sublinear.
	n8 := mustPlaceSP(t, 1120, 8, ArmDefault)
	n16 := mustPlaceSP(t, 1120, 16, ArmDefault)
	if n16.makespanS >= n8.makespanS {
		t.Errorf("16 nodes should beat 8 under this budget: %v vs %v", n16.makespanS, n8.makespanS)
	}
	if speedup := n8.makespanS / n16.makespanS; speedup >= 2 {
		t.Errorf("scaling must be sublinear (caps + comm), speedup %v", speedup)
	}
}

func TestArmString(t *testing.T) {
	if ArmDefault.String() != "Default" || ArmOffline.String() != "ARCS-Offline" || ArmOnline.String() != "ARCS-Online" {
		t.Errorf("arm names wrong")
	}
}
