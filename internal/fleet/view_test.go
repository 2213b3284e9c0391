package fleet

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"arcs/internal/codec"
)

// randomMembers draws n distinct member names.
func randomMembers(r *rand.Rand, n int) []string {
	seen := map[string]bool{}
	out := make([]string, 0, n)
	for len(out) < n {
		name := fmt.Sprintf("http://n%d:1809", r.Intn(20))
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

func sortedCopy(s []string) []string {
	out := slices.Clone(s)
	slices.Sort(out)
	return out
}

// TestViewRouteProperty: over random member lists (1–7 nodes), keys and
// replica counts (1–4), Owners lists min(replicas, n) distinct members,
// Peers leaves out the members
// without a handle, and a successor view keeps the handles of the
// members that persist.
func TestViewRouteProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n, replicas := 1+r.Intn(7), 1+r.Intn(4)
		members := randomMembers(r, n)
		noHandle := map[string]bool{}
		for _, m := range members {
			if r.Intn(3) == 0 {
				noHandle[m] = true
			}
		}
		built := map[string]int{}
		handle := func(name string) (*string, error) {
			built[name]++
			if noHandle[name] {
				return nil, nil
			}
			h := name
			return &h, nil
		}
		vs, err := NewViews(codec.MemberList{Epoch: 1, Nodes: members}, replicas, handle)
		if err != nil {
			t.Fatal(err)
		}
		v := vs.View()
		sorted := sortedCopy(members)
		var withHandle []string
		for _, m := range sorted {
			if !noHandle[m] {
				withHandle = append(withHandle, m)
			}
		}
		if !slices.Equal(v.Peers(), withHandle) {
			t.Fatalf("trial %d: Peers = %v, want %v", trial, v.Peers(), withHandle)
		}
		for _, m := range members {
			if !v.Has(m) || (v.Peer(m) == nil) != noHandle[m] {
				t.Fatalf("trial %d: member %s: Has=%v Peer=%v, noHandle=%v", trial, m, v.Has(m), v.Peer(m), noHandle[m])
			}
		}
		if v.Has("http://stranger:1809") || v.Peer("http://stranger:1809") != nil {
			t.Fatalf("trial %d: a non-member is in the view", trial)
		}
		for k := 0; k < 20; k++ {
			ck := fmt.Sprintf("SP|B|%d|region%d", 40+r.Intn(60), r.Intn(1000))
			owners := v.Owners(ck, nil)
			if len(owners) != min(replicas, n) || len(slices.Compact(sortedCopy(owners))) != len(owners) {
				t.Fatalf("trial %d key %s: Owners = %v, want %d distinct members", trial, ck, owners, min(replicas, n))
			}
			for _, o := range owners {
				if !v.Has(o) {
					t.Fatalf("trial %d key %s: owner %s is not a member", trial, ck, o)
				}
			}
		}

		// Successor: drop one member, add one; persisting handles carry over.
		next := append(slices.Clone(members[1:]), "http://joiner:1809")
		old := v
		v, adopted, err := vs.Adopt(codec.MemberList{Epoch: 2, Nodes: next}, nil)
		if err != nil || !adopted {
			t.Fatalf("trial %d: Adopt = %v, %v", trial, adopted, err)
		}
		for _, m := range members[1:] {
			if v.Peer(m) != old.Peer(m) || (!noHandle[m] && built[m] != 1) {
				t.Fatalf("trial %d: handle for persisting member %s rebuilt", trial, m)
			}
		}
		if v.Has(members[0]) || v.Peer("http://joiner:1809") == nil {
			t.Fatalf("trial %d: successor view = %v", trial, v.Membership())
		}
	}
}

// TestViewsAdoptConcurrent: 16 goroutines Adopt random lists at once.
// Every view a reader loads supersedes (or equals) the one it loaded
// before, and the holder ends at the supersedes-maximum of every list
// offered.
func TestViewsAdoptConcurrent(t *testing.T) {
	first := codec.MemberList{Epoch: 1, Nodes: []string{"http://n0:1809"}}
	vs, err := NewViews(first, DefaultReplicas, func(name string) (*string, error) { return &name, nil })
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 16, 50
	offered := make([][]codec.MemberList, writers)
	var adoptions sync.WaitGroup
	var mu sync.Mutex
	reconciled, adopted := 0, 0
	done := make(chan struct{})
	readerErr := make(chan error, 1)
	go func() {
		defer close(readerErr)
		prev := vs.View()
		for {
			select {
			case <-done:
				return
			default:
			}
			cur := vs.View()
			if cur != prev && !MembershipSupersedes(cur.Membership(), prev.Membership()) {
				readerErr <- fmt.Errorf("view moved backwards: %v after %v", cur.Membership(), prev.Membership())
				return
			}
			prev = cur
		}
	}()
	for w := 0; w < writers; w++ {
		r := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < perWriter; i++ {
			offered[w] = append(offered[w], codec.MemberList{
				Epoch: uint64(1 + r.Intn(12)),
				Nodes: randomMembers(r, 1+r.Intn(5)),
			})
		}
		adoptions.Add(1)
		go func(lists []codec.MemberList) {
			defer adoptions.Done()
			for _, m := range lists {
				_, ok, err := vs.Adopt(m, func(*View[*string]) {
					mu.Lock()
					reconciled++
					mu.Unlock()
				})
				if err != nil {
					t.Errorf("Adopt(%v): %v", m, err)
				}
				if ok {
					mu.Lock()
					adopted++
					mu.Unlock()
				}
			}
		}(offered[w])
	}
	adoptions.Wait()
	close(done)
	if err := <-readerErr; err != nil {
		t.Fatal(err)
	}
	best := first
	for _, lists := range offered {
		for _, m := range lists {
			if MembershipSupersedes(m, best) {
				best = m
			}
		}
	}
	got := vs.View().Membership()
	if got.Epoch != best.Epoch || nodesKey(got.Nodes) != nodesKey(best.Nodes) {
		t.Fatalf("final view %v, want the supersedes-maximum %v", got, best)
	}
	if adopted == 0 || reconciled != adopted {
		t.Fatalf("adopted %d lists, reconcile ran %d times", adopted, reconciled)
	}
}
