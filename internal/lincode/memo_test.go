package lincode

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoBuildsEachKeyOnce is the build-once rule: 8 goroutines asking for
// 4 distinct keys at the same moment run 4 builds, not 8, and every caller
// of a key gets the one value built for it.
func TestMemoBuildsEachKeyOnce(t *testing.T) {
	var m Memo[*int]
	var builds [4]atomic.Int32
	got := make([]*int, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			k := g % 4
			v, err := m.Get([]byte{byte(k), 0xFF}, func() (*int, error) {
				builds[k].Add(1)
				v := k
				return &v, nil
			})
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
			}
			got[g] = v
		}()
	}
	close(start)
	wg.Wait()
	for k := range builds {
		if n := builds[k].Load(); n != 1 {
			t.Errorf("key %d built %d times, want 1", k, n)
		}
		if got[k] != got[k+4] || *got[k] != k {
			t.Errorf("key %d: callers got different or wrong values", k)
		}
	}
}

// TestMemoDoesNotKeepFailedBuilds: a failed build reaches its caller and
// the next Get builds again.
func TestMemoDoesNotKeepFailedBuilds(t *testing.T) {
	var m Memo[int]
	boom := errors.New("boom")
	calls := 0
	build := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, boom
		}
		return 7, nil
	}
	if _, err := m.Get([]byte("k"), build); !errors.Is(err, boom) {
		t.Fatalf("first Get: err = %v, want boom", err)
	}
	for i := 0; i < 2; i++ {
		if v, err := m.Get([]byte("k"), build); err != nil || v != 7 {
			t.Fatalf("Get after failure = %d, %v; want 7, nil", v, err)
		}
	}
	if calls != 2 {
		t.Fatalf("build ran %d times, want 2 (one failure, one success)", calls)
	}
}

// TestMemoHitAllocatesNothing keeps the lookup off the heap: the plan memo
// sits on the per-block repair path and the per-stripe decode path.
func TestMemoHitAllocatesNothing(t *testing.T) {
	var m Memo[int]
	key := []byte{1, 2, 3, 4, 5, 6}
	build := func() (int, error) { return 1, nil }
	if _, err := m.Get(key, build); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { m.Get(key, build) }); n != 0 {
		t.Fatalf("Memo.Get hit allocates %.0f times, want 0", n)
	}
}

// TestValidateHelpers walks every way a helper set can be wrong; each is
// ErrBadHelpers, and the check itself stays off the heap.
func TestValidateHelpers(t *testing.T) {
	good := []int{0, 1, 3, 4}
	if err := ValidateHelpers(6, 4, 2, good); err != nil {
		t.Fatalf("valid set refused: %v", err)
	}
	for _, tc := range []struct {
		name    string
		failed  int
		helpers []int
	}{
		{"failed negative", -1, good},
		{"failed out of range", 6, good},
		{"too few", 2, good[:3]},
		{"too many", 2, []int{0, 1, 3, 4, 5}},
		{"helper negative", 2, []int{0, 1, 3, -4}},
		{"helper out of range", 2, []int{0, 1, 3, 6}},
		{"helper is failed", 2, []int{0, 1, 2, 4}},
		{"duplicate", 2, []int{0, 1, 3, 1}},
	} {
		if err := ValidateHelpers(6, 4, tc.failed, tc.helpers); !errors.Is(err, ErrBadHelpers) {
			t.Errorf("%s: err = %v, want ErrBadHelpers", tc.name, err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { ValidateHelpers(6, 4, 2, good) }); n != 0 {
		t.Fatalf("ValidateHelpers allocates %.0f times, want 0", n)
	}
}
