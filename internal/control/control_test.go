package control

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/maya-defense/maya/internal/mat"
	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/sysid"
)

// testModel is a stable order-2, 3-input plant resembling the identified
// power models (positive DVFS/balloon gains, negative idle gain).
func testModel() *sysid.Model {
	return &sysid.Model{
		Order: 2, NumInputs: 3,
		A: []float64{0.55, 0.08},
		B: [][]float64{
			{3.0, 1.0},  // dvfs
			{-2.0, -.6}, // idle
			{2.4, 0.8},  // balloon
		},
		YMean: 15, UMean: []float64{0.5, 0.3, 0.4},
	}
}

func TestFromARXMatchesModel(t *testing.T) {
	m := testModel()
	ss := FromARX(m)
	if ss.Order() != 2 || ss.NumInputs() != 3 {
		t.Fatalf("shape %dx%d", ss.Order(), ss.NumInputs())
	}
	if err := ss.Verify(m, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestFromARXOrder4(t *testing.T) {
	m := &sysid.Model{
		Order: 4, NumInputs: 2,
		A: []float64{0.5, 0.1, -0.05, 0.02},
		B: [][]float64{
			{1.0, 0.5, 0.2, 0.1},
			{-0.7, -0.3, -0.1, 0.0},
		},
		YMean: 10, UMean: []float64{0.5, 0.5},
	}
	if err := FromARX(m).Verify(m, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestSynthesizeBasics(t *testing.T) {
	ss := FromARX(testModel())
	k, rep, err := Synthesize(ss, DefaultSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	// Structure: order + disturbance + integrator + input memory.
	if want := 2 + 2 + 3; k.Dim() != want {
		t.Fatalf("dim=%d want %d", k.Dim(), want)
	}
	if rep.ClosedLoopRadius >= 1 {
		t.Fatalf("unstable loop ρ=%g", rep.ClosedLoopRadius)
	}
	if rep.DeviationBound <= 0 {
		t.Fatalf("deviation bound %g", rep.DeviationBound)
	}
	if k.StorageBytes() >= 1024 {
		t.Fatalf("storage %dB ≥ 1KB (paper: <1KB)", k.StorageBytes())
	}
}

func TestOrder4ControllerBudget(t *testing.T) {
	// §V-A/§VII-E: with the paper's order-4 model, the controller must
	// stay within ~200 MAC ops and <1 KB of storage.
	m := &sysid.Model{
		Order: 4, NumInputs: 3,
		A: []float64{0.5, 0.12, -0.04, 0.01},
		B: [][]float64{
			{2.5, 1.2, 0.5, 0.2},
			{-1.8, -0.8, -0.3, -0.1},
			{2.0, 1.0, 0.4, 0.15},
		},
		YMean: 15, UMean: []float64{0.5, 0.3, 0.4},
	}
	k, _, err := Synthesize(FromARX(m), DefaultSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if k.Dim() != 9 {
		t.Fatalf("order-4 controller dim=%d want 9", k.Dim())
	}
	if k.Ops() > 250 {
		t.Fatalf("ops/step=%d exceeds the paper's ~200 budget", k.Ops())
	}
	if k.StorageBytes() >= 1024 {
		t.Fatalf("storage %dB ≥ 1KB", k.StorageBytes())
	}
}

func TestSynthesizeRejectsBadSpec(t *testing.T) {
	ss := FromARX(testModel())
	bad := DefaultSpec(3)
	bad.InputWeights = []float64{1, 1} // wrong count
	if _, _, err := Synthesize(ss, bad); err == nil {
		t.Fatal("want error for weight count")
	}
	bad = DefaultSpec(3)
	bad.InputWeights[1] = -1
	if _, _, err := Synthesize(ss, bad); err == nil {
		t.Fatal("want error for negative weight")
	}
	bad = DefaultSpec(3)
	bad.Guardband = -0.5
	if _, _, err := Synthesize(ss, bad); err == nil {
		t.Fatal("want error for negative guardband")
	}
}

// simulateTracking closes the loop around the true ARX model with an output
// disturbance trace and a target trace; returns the measured outputs.
func simulateTracking(k *Controller, m *sysid.Model, targets, disturbance []float64) []float64 {
	ss := FromARX(m)
	n := ss.Order()
	x := make([]float64, n)
	xNext := make([]float64, n)
	y := make([]float64, len(targets))
	u := make([]float64, ss.NumInputs())
	for t := range targets {
		y[t] = ss.C.MulVec(x)[0] + ss.YMean + disturbance[t]
		out := k.Step(targets[t] - y[t])
		for j := range u {
			u[j] = out[j] - ss.UMean[j]
		}
		ss.A.MulVecTo(xNext, x)
		bu := ss.B.MulVec(u)
		for i := range xNext {
			xNext[i] += bu[i]
		}
		copy(x, xNext)
	}
	return y
}

func TestTracksConstantTarget(t *testing.T) {
	m := testModel()
	k, _, err := Synthesize(FromARX(m), DefaultSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	nSteps := 300
	targets := make([]float64, nSteps)
	dist := make([]float64, nSteps)
	for i := range targets {
		targets[i] = 18
	}
	y := simulateTracking(k, m, targets, dist)
	// After the transient, the loop must hold the target to within 1%.
	for i := 100; i < nSteps; i++ {
		if math.Abs(y[i]-18) > 0.18 {
			t.Fatalf("steady-state error %g at step %d", y[i]-18, i)
		}
	}
}

func TestRejectsDisturbanceSteps(t *testing.T) {
	m := testModel()
	k, _, err := Synthesize(FromARX(m), DefaultSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	nSteps := 400
	targets := make([]float64, nSteps)
	dist := make([]float64, nSteps)
	for i := range targets {
		targets[i] = 16
		if i >= 200 {
			dist[i] = 3 // the application's power jumps by 3 W
		}
	}
	y := simulateTracking(k, m, targets, dist)
	// Before the step: settled. After: recovers within 60 periods.
	if math.Abs(y[199]-16) > 0.2 {
		t.Fatalf("not settled pre-step: %g", y[199])
	}
	for i := 280; i < nSteps; i++ {
		if math.Abs(y[i]-16) > 0.25 {
			t.Fatalf("disturbance not rejected at %d: %g", i, y[i])
		}
	}
}

func TestTracksMovingTarget(t *testing.T) {
	m := testModel()
	k, _, err := Synthesize(FromARX(m), DefaultSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	nSteps := 1200
	targets := make([]float64, nSteps)
	dist := make([]float64, nSteps)
	level := 16.0
	for i := range targets {
		if i%60 == 0 {
			level = r.Uniform(12, 20)
		}
		targets[i] = level
		dist[i] = 1.5 * math.Sin(2*math.Pi*float64(i)/90)
	}
	y := simulateTracking(k, m, targets, dist)
	// Mean absolute tracking error over the run (excluding warmup) should
	// be well under the ±10% band of §V-A.
	var mad float64
	count := 0
	for i := 100; i < nSteps; i++ {
		mad += math.Abs(y[i] - targets[i])
		count++
	}
	mad /= float64(count)
	if mad > 1.0 {
		t.Fatalf("moving-target MAD %g W too large", mad)
	}
}

func TestFormalBeatsNaive(t *testing.T) {
	// The §IV-B comparison: on the same plant with a changing application
	// disturbance, the formal controller must track far better than the
	// naive proportional scheduler.
	m := testModel()
	k, _, err := Synthesize(FromARX(m), DefaultSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	nSteps := 600
	targets := make([]float64, nSteps)
	dist := make([]float64, nSteps)
	for i := range targets {
		targets[i] = 17
		// Application phases: abrupt power jumps every ~50 periods.
		dist[i] = []float64{0, 2.5, -1.5, 1.0}[(i/50)%4] + 0.3*r.NormFloat64()
	}
	yFormal := simulateTracking(k, m, targets, dist)

	naive := NewNaive(3, 0.04, []float64{1, -1, 1}, m.UMean)
	ss := FromARX(m)
	x := make([]float64, ss.Order())
	xNext := make([]float64, ss.Order())
	u := make([]float64, 3)
	yNaive := make([]float64, nSteps)
	for t := 0; t < nSteps; t++ {
		yNaive[t] = ss.C.MulVec(x)[0] + ss.YMean + dist[t]
		out := naive.Step(targets[t] - yNaive[t])
		for j := range u {
			u[j] = out[j] - ss.UMean[j]
		}
		ss.A.MulVecTo(xNext, x)
		bu := ss.B.MulVec(u)
		for i := range xNext {
			xNext[i] += bu[i]
		}
		copy(x, xNext)
	}
	madF, madN := 0.0, 0.0
	for i := 100; i < nSteps; i++ {
		madF += math.Abs(yFormal[i] - targets[i])
		madN += math.Abs(yNaive[i] - targets[i])
	}
	if madF >= 0.7*madN {
		t.Fatalf("formal (%g) not clearly better than naive (%g)", madF, madN)
	}
}

func TestStepMatchesMatrices(t *testing.T) {
	// In the unsaturated region, Step must equal the Eq. 1 linear recursion
	// given by Matrices().
	m := testModel()
	k, _, err := Synthesize(FromARX(m), DefaultSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	A, B, C, D := k.Matrices()
	dim := k.Dim()
	xi := make([]float64, dim)
	r := rng.New(11)
	// Without a plant closing the loop the controller's open-loop state
	// drifts toward saturation, so keep the probe short and the errors
	// tiny: the point is exact linear equivalence, not realism.
	for step := 0; step < 12; step++ {
		e := 0.01 * r.NormFloat64()
		got := k.Step(e)

		// Linear reference: u_dev = C ξ + D e; ξ⁺ = A ξ + B e.
		uLin := make([]float64, 3)
		C.MulVecTo(uLin, xi)
		for j := range uLin {
			uLin[j] += D.At(j, 0)*e + k.uMean[j]
		}
		next := A.MulVec(xi)
		for i := range next {
			next[i] += B.At(i, 0) * e
		}
		copy(xi, next)

		for j := range uLin {
			if math.Abs(got[j]-uLin[j]) > 1e-9 {
				t.Fatalf("step %d input %d: structured %g vs matrix %g", step, j, got[j], uLin[j])
			}
		}
	}
}

// stepDigest is the SHA-256 that TestStepDigest's error sequence produced
// when Step still ran through mat.Matrix.MulVecTo, before it indexed
// row-major gain slices.
const stepDigest = "2308a090a8df40ce190ae5de1271d6b63fcdc32be1f000c75a67a61d5bd9721f"

// TestStepDigest pins Controller.Step bit for bit. Both shapes of
// bankTestControllers (order 2 with 3 inputs, order 4 with 2) run seven
// clones each under an integrator clamp of 30 for 400 steps of small
// errors with occasional ±400 W spikes, which reach saturation and the
// anti-windup back-calculation, and then one step on which clone 0 sees a
// NaN error. Every output bit, every StateNorm bit and every Saturated
// flag is hashed, so a change to Step's arithmetic, its summation order or
// which values its NaN reaches changes the digest. Every NaN hashes alike:
// the sign and payload a NaN carries out of an operation with two NaN
// operands depend on the operand order the compiler picks, which differs
// between build modes (a -race build's does).
func TestStepDigest(t *testing.T) {
	ctls := bankTestControllers(t)
	h := sha256.New()
	var buf []byte
	put := func(x float64) {
		if math.IsNaN(x) {
			x = math.NaN()
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	for _, name := range []string{"order2-nu3", "order4-nu2"} {
		const T, steps = 7, 400
		ks := make([]*Controller, T)
		for i := range ks {
			ks[i] = ctls[name].Clone()
			ks[i].SetIntegratorClamp(30)
		}
		r := rng.NewNamed(99, "test/bank-"+name)
		for s := 0; s <= steps; s++ {
			for i, k := range ks {
				e := r.Uniform(-3, 3)
				if r.Bool(0.1) {
					e = r.Uniform(-400, 400)
				}
				if s == steps && i == 0 {
					e = math.NaN()
				}
				buf = buf[:0]
				for _, u := range k.Step(e) {
					put(u)
				}
				put(k.StateNorm())
				if k.Saturated() {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
				h.Write(buf)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != stepDigest {
		t.Fatalf("Step digest %s, want %s", got, stepDigest)
	}
}

func TestStepOutputsBounded(t *testing.T) {
	m := testModel()
	k, _, err := Synthesize(FromARX(m), DefaultSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(13)
	for i := 0; i < 2000; i++ {
		u := k.Step(r.Uniform(-30, 30)) // wild errors
		for j, v := range u {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("input %d out of bounds: %g", j, v)
			}
		}
	}
}

func TestAntiWindupRecovers(t *testing.T) {
	m := testModel()
	k, _, err := Synthesize(FromARX(m), DefaultSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	// Drive hard into saturation with an unreachable target...
	for i := 0; i < 300; i++ {
		k.Step(+50)
	}
	// ...then demand the opposite direction; with anti-windup the inputs
	// must unwind quickly rather than staying pinned for hundreds of steps.
	steps := 0
	for ; steps < 50; steps++ {
		u := k.Step(-5)
		if u[0] < 0.9 {
			break
		}
	}
	if steps >= 50 {
		t.Fatal("integrator windup: inputs stayed pinned")
	}
}

func TestResetClearsState(t *testing.T) {
	m := testModel()
	k, _, err := Synthesize(FromARX(m), DefaultSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	first := append([]float64(nil), k.Step(2.0)...)
	for i := 0; i < 50; i++ {
		k.Step(5)
	}
	k.Reset()
	again := k.Step(2.0)
	for j := range first {
		if math.Abs(first[j]-again[j]) > 1e-12 {
			t.Fatalf("reset not clean: %v vs %v", first, again)
		}
	}
}

func TestGuardbandDetunes(t *testing.T) {
	// §V-A: a larger guardband must yield a larger (more conservative)
	// predicted deviation bound.
	ss := FromARX(testModel())
	specLo := DefaultSpec(3)
	specLo.Guardband = 0.1
	specHi := DefaultSpec(3)
	specHi.Guardband = 2.0
	_, repLo, err := Synthesize(ss, specLo)
	if err != nil {
		t.Fatal(err)
	}
	_, repHi, err := Synthesize(ss, specHi)
	if err != nil {
		t.Fatal(err)
	}
	if repHi.SettleSteps < repLo.SettleSteps {
		t.Fatalf("higher guardband settled faster: %d vs %d", repHi.SettleSteps, repLo.SettleSteps)
	}
}

func TestRobustToPlantMismatch(t *testing.T) {
	// The guardband exists because the real machine differs from the
	// model. Perturb every plant coefficient by ±30% and require the loop
	// to remain stable and still track.
	m := testModel()
	k, _, err := Synthesize(FromARX(m), DefaultSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	pert := &sysid.Model{
		Order: 2, NumInputs: 3,
		A: []float64{0.55 * 1.3, 0.08 * 0.7},
		B: [][]float64{
			{3.0 * 0.7, 1.0 * 0.7},
			{-2.0 * 1.3, -.6 * 1.3},
			{2.4 * 0.7, 0.8 * 1.3},
		},
		YMean: 15, UMean: []float64{0.5, 0.3, 0.4},
	}
	nSteps := 400
	targets := make([]float64, nSteps)
	dist := make([]float64, nSteps)
	for i := range targets {
		targets[i] = 17
	}
	y := simulateTracking(k, pert, targets, dist)
	for i := 200; i < nSteps; i++ {
		if math.Abs(y[i]-17) > 0.5 {
			t.Fatalf("mismatched plant not tracked: %g at %d", y[i], i)
		}
	}
}

func TestTelemetryAccessors(t *testing.T) {
	m := testModel()
	k, _, err := Synthesize(FromARX(m), DefaultSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if k.Saturated() || k.StateNorm() != 0 {
		t.Fatal("fresh controller reports non-zero telemetry")
	}

	// Small errors around the operating point should not saturate; huge
	// sustained errors must.
	k.Step(0.01)
	if k.Saturated() {
		t.Fatal("tiny error saturated the inputs")
	}
	for i := 0; i < 100; i++ {
		k.Step(+50)
	}
	if !k.Saturated() {
		t.Fatal("sustained +50 W error should pin the inputs")
	}
	if n := k.StateNorm(); n <= 0 || math.IsNaN(n) {
		t.Fatalf("driven controller state norm %g", n)
	}

	k.Reset()
	if k.Saturated() || k.StateNorm() != 0 {
		t.Fatal("Reset did not clear telemetry state")
	}
}

func TestNaiveBounded(t *testing.T) {
	n := NewNaive(3, 0.05, []float64{1, -1, 1}, []float64{0.5, 0.5, 0.5})
	for i := 0; i < 100; i++ {
		for _, v := range n.Step(100) {
			if v < 0 || v > 1 {
				t.Fatalf("naive out of range: %g", v)
			}
		}
	}
	n.Reset()
	u := n.Step(0)
	if math.Abs(u[0]-0.5) > 1e-12 {
		t.Fatal("naive at zero error should rest at 0.5")
	}
}

func TestMatricesShapes(t *testing.T) {
	m := testModel()
	k, _, err := Synthesize(FromARX(m), DefaultSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	A, B, C, D := k.Matrices()
	dim := k.Dim()
	if A.Rows() != dim || A.Cols() != dim || B.Rows() != dim || B.Cols() != 1 ||
		C.Rows() != 3 || C.Cols() != dim || D.Rows() != 3 || D.Cols() != 1 {
		t.Fatalf("matrix shapes wrong: A %dx%d B %dx%d C %dx%d D %dx%d",
			A.Rows(), A.Cols(), B.Rows(), B.Cols(), C.Rows(), C.Cols(), D.Rows(), D.Cols())
	}
	// Only closed-loop stability is required of the design (an aggressive
	// servo controller need not be stable in isolation); the runtime states
	// are nevertheless bounded under saturation because the observer block
	// is stable and u_prev/z are clamped — sanity check the observer block.
	obs := A.Slice(0, k.n+1, 0, k.n+1)
	// The observer block alone includes feedback through B·C rows; bound it
	// loosely rather than requiring strict contraction.
	if rho := mat.SpectralRadius(obs); math.IsNaN(rho) {
		t.Fatal("observer block radius NaN")
	}
}
