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

// TestEvictCountsOnlyEvictions queues an eviction for each of two
// running tenants sharing a bank. The scheduler handles the first command
// before the next pass, so that tenant ends evicted; the bank finishes
// before it handles the second, so that tenant ends done.
// mayad_evicted_total must count only the first.
func TestEvictCountsOnlyEvictions(t *testing.T) {
	srv := New(Config{DesignFor: difftest.DesignFor}, nil)
	sc := srv.sched
	for range 2 {
		if _, err := srv.Admit(TenantSpec{MaxTicks: 2 * PeriodTicks, WarmupTicks: -1}); err != nil {
			t.Fatal(err)
		}
		sc.handle(<-sc.cmds)
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
	sc.handle(<-sc.cmds)
	evict(1)
	sc.stepOnce()
	sc.handle(<-sc.cmds)

	for id, want := range []string{StateEvicted, StateDone} {
		if st, _ := srv.Status(id); st.State != want {
			t.Fatalf("tenant %d ended %q, want %q", id, st.State, want)
		}
	}
	if n := srv.met.Evicted.Value(); n != 1 {
		t.Fatalf("mayad_evicted_total = %d, want 1", n)
	}
}
