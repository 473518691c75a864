package mayad

import (
	"slices"
	"testing"

	"github.com/maya-defense/maya/internal/fleet/difftest"
)

// TestLaunchSplitsGroupsIntoBanks queues 130 identical tenants with one
// distinct tenant admitted among them, then runs one launch: the identical
// group must fill banks of 64, 64 and 2 in admission order, and the
// distinct tenant a bank of its own after them.
func TestLaunchSplitsGroupsIntoBanks(t *testing.T) {
	const identical, distinctAt = 130, 100
	srv := New(Config{MaxTenants: identical + 1, QueueDepth: identical + 1, DesignFor: difftest.DesignFor}, nil)
	for i := 0; i <= identical; i++ {
		sp := TenantSpec{Seed: 1, Index: i, MaxTicks: 400, WarmupTicks: 40}
		if i == distinctAt {
			sp.MaxTicks = 420
		}
		if _, err := srv.Admit(sp); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	sc := srv.sched
	for len(sc.cmds) > 0 {
		sc.handle(<-sc.cmds)
	}
	sc.launch()

	var sizes, ids []int
	for _, b := range sc.banks {
		sizes = append(sizes, len(b.slots))
		for _, tn := range b.slots {
			ids = append(ids, tn.id)
		}
	}
	if want := []int{64, 64, 2, 1}; !slices.Equal(sizes, want) {
		t.Fatalf("bank sizes %v, want %v", sizes, want)
	}
	var want []int
	for id := 0; id <= identical; id++ {
		if id != distinctAt {
			want = append(want, id)
		}
	}
	if want = append(want, distinctAt); !slices.Equal(ids, want) {
		t.Fatalf("bank slots hold tenants %v, want %v", ids, want)
	}
}

// handleNext hands the scheduler its next queued command, failing the
// test when none is queued instead of blocking.
func handleNext(t *testing.T, sc *scheduler) {
	t.Helper()
	select {
	case cmd := <-sc.cmds:
		sc.handle(cmd)
	default:
		t.Fatal("no command queued")
	}
}

// TestEvictCountsOnlyEvictions queues an eviction for each of two
// running tenants sharing a bank. Each tenant runs more than one pass and
// at most two, so the first pass leaves both running. The scheduler
// handles the first command before the next pass, so that tenant ends
// evicted; the bank finishes before it handles the second, so that tenant
// ends done. mayad_evicted_total must count only the first.
func TestEvictCountsOnlyEvictions(t *testing.T) {
	srv := New(Config{DesignFor: difftest.DesignFor}, nil)
	sc := srv.sched
	for range 2 {
		if _, err := srv.Admit(TenantSpec{MaxTicks: (passPeriods + 1) * PeriodTicks, WarmupTicks: -1}); err != nil {
			t.Fatal(err)
		}
		handleNext(t, sc)
	}
	sc.launch()
	sc.stepOnce()
	evict := func(id int) {
		t.Helper()
		if ok, err := srv.Evict(id); !ok || err != nil {
			t.Fatalf("evict %d: ok %v, err %v", id, ok, err)
		}
	}
	evict(0)
	handleNext(t, sc)
	evict(1)
	sc.stepOnce()
	handleNext(t, sc)

	for id, want := range []string{StateEvicted, StateDone} {
		if st, _ := srv.Status(id); st.State != want {
			t.Fatalf("tenant %d ended %q, want %q", id, st.State, want)
		}
	}
	if n := srv.met.Evicted.Value(); n != 1 {
		t.Fatalf("mayad_evicted_total = %d, want 1", n)
	}
}

// TestPassAdvancesEveryBankAndSpillsPeriodMajor runs one pass over banks
// of different lengths, one of them shorter than a pass and ending in a
// partial period, and a spill ring smaller than the pass's 82 samples.
// Every tenant must have advanced min(passPeriods, its periods) periods,
// and the ring must hold the newest samples of the pass in period-major
// order: the k-th period boundary of every bank, in bank and slot order,
// before the (k+1)-th of any bank, each sample under its tenant id. The
// window reaches back into the short bank's periods, so it holds samples
// of every tenant, where a bank-major push would keep the last banks'.
func TestPassAdvancesEveryBankAndSpillsPeriodMajor(t *testing.T) {
	const limit = 60
	srv := New(Config{SpillLimit: limit, DesignFor: difftest.DesignFor}, nil)
	sc := srv.sched
	// Tenants 0 and 1 share a bank; 2 and 3 have banks of their own.
	for i, maxTicks := range []int{
		(passPeriods + 5) * PeriodTicks,
		(passPeriods + 5) * PeriodTicks,
		7*PeriodTicks + 5,
		passPeriods * PeriodTicks,
	} {
		sp := TenantSpec{Index: i, MaxTicks: maxTicks, WarmupTicks: 2 * PeriodTicks}
		if _, err := srv.Admit(sp); err != nil {
			t.Fatal(err)
		}
		handleNext(t, sc)
	}
	sc.launch()
	if len(sc.banks) != 3 {
		t.Fatalf("%d banks, want 3", len(sc.banks))
	}
	sc.stepOnce()
	got := srv.spill.drain()

	// Collect the running banks where the pass left them: every tenant's
	// recorded samples are then exactly the readings its pass spilled.
	sc.shutdown()
	ids := []int{0, 1, 2, 3}
	banks := [][]int{{0, 1}, {2}, {3}}
	var want []SpillSample
	total := 0
	for k := range passPeriods {
		for _, bank := range banks {
			for _, id := range bank {
				tn := srv.tenants[id]
				if k < len(tn.res.DefenseSamples) {
					total++
					want = append(want, SpillSample{Tenant: id, Step: tn.res.FirstStep + 1 + k, PowerW: tn.res.DefenseSamples[k]})
				}
			}
		}
	}
	for _, id := range ids {
		tn := srv.tenants[id]
		if tick, want := int(tn.tick.Load()), min(passPeriods*PeriodTicks, tn.spec.MaxTicks); tick != want {
			t.Fatalf("tenant %d at tick %d after one pass, want %d", id, tick, want)
		}
		if n, want := len(tn.res.DefenseSamples), min(passPeriods, tn.spec.MaxTicks/PeriodTicks); n != want {
			t.Fatalf("tenant %d recorded %d periods in one pass, want %d", id, n, want)
		}
	}
	want = want[len(want)-limit:]
	if !slices.Equal(got, want) {
		t.Fatalf("spill holds\n%v\nwant the pass's newest samples, period-major\n%v", got, want)
	}
	if n := srv.met.SpillDropped.Value(); n != uint64(total-limit) {
		t.Fatalf("maya_fleet_spill_dropped_total = %d, want %d", n, total-limit)
	}
}
