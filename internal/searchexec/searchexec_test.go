package searchexec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachWritesEverySlot(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 100
			out := make([]int, n)
			err := ForEach(n, workers, func(i int) error {
				out[i] = i * i
				return nil
			})
			if err != nil {
				t.Fatalf("ForEach: %v", err)
			}
			for i := range out {
				if out[i] != i*i {
					t.Fatalf("out[%d] = %d, want %d", i, out[i], i*i)
				}
			}
		})
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	err3 := errors.New("boom at 3")
	err7 := errors.New("boom at 7")
	for _, workers := range []int{1, 4} {
		err := ForEach(10, workers, func(i int) error {
			switch i {
			case 3:
				return err3
			case 7:
				return err7
			}
			return nil
		})
		if !errors.Is(err, err3) {
			t.Errorf("workers=%d: err = %v, want %v (the lowest failing index)", workers, err, err3)
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	if err := ForEach(0, 4, func(int) error { called = true; return nil }); err != nil {
		t.Fatalf("ForEach(0): %v", err)
	}
	if called {
		t.Error("fn called for n=0")
	}
}

func TestForEachSerialStopsAtFirstError(t *testing.T) {
	calls := 0
	wantErr := errors.New("stop")
	err := ForEach(10, 1, func(i int) error {
		calls++
		if i == 2 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if calls != 3 {
		t.Errorf("serial loop made %d calls after error at index 2, want 3", calls)
	}
}

// TestForEachStopsClaimingAfterError: once a task fails, workers stop
// claiming new indices instead of grinding through the whole range.
func TestForEachStopsClaimingAfterError(t *testing.T) {
	const n = 64
	var executed atomic.Int64
	wantErr := errors.New("boom")
	err := ForEach(n, 4, func(i int) error {
		executed.Add(1)
		if i == 0 {
			return wantErr
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if got := executed.Load(); got == n {
		t.Errorf("all %d tasks executed despite early failure at index 0", n)
	}
}

func TestLRUBasic(t *testing.T) {
	c := NewLRU[string, int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("Get on empty cache hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d,%v", v, ok)
	}
	c.Put("c", 3) // evicts b: a was refreshed by the Get above
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("a evicted wrongly: %d,%v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Errorf("Get(c) = %d,%v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 2 || st.Len != 2 || st.Cap != 2 {
		t.Errorf("stats = %+v, want 3 hits / 2 misses / len 2 / cap 2", st)
	}
	if hr := st.HitRate(); hr != 0.6 {
		t.Errorf("HitRate = %v, want 0.6", hr)
	}
}

func TestLRUPutRefreshesExisting(t *testing.T) {
	c := NewLRU[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh, not insert: b stays
	c.Put("c", 3)  // evicts b (least recently used)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Errorf("Get(a) = %d,%v, want 10,true", v, ok)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestLRUReplaceKeepsOrderAndCounters(t *testing.T) {
	c := NewLRU[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Replace("a", 10) // in place: a stays least recently used
	c.Replace("z", 26) // not cached: nothing stored, nothing evicted
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Len != 2 {
		t.Fatalf("stats after Replace = %+v, want no lookups and len 2", st)
	}
	if v, ok := c.Peek("a"); !ok || v != 10 {
		t.Fatalf("Peek(a) = %d,%v, want 10,true", v, ok)
	}
	c.Put("c", 3) // evicts a, the least recently used
	if _, ok := c.Peek("a"); ok {
		t.Error("Replace refreshed a's recency")
	}
	if _, ok := c.Peek("z"); ok {
		t.Error("Replace inserted an uncached key")
	}
}

func TestLRUMinimumCapacity(t *testing.T) {
	c := NewLRU[int, int](0)
	c.Put(1, 1)
	c.Put(2, 2)
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1 (capacity clamps to 1)", c.Len())
	}
}

// TestLRUConcurrent hammers the cache from many goroutines; meaningful
// under -race.
func TestLRUConcurrent(t *testing.T) {
	c := NewLRU[int, int](16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (w*31 + i) % 40
				if v, ok := c.Get(k); ok && v != k {
					t.Errorf("Get(%d) = %d", k, v)
				}
				c.Put(k, k)
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Errorf("Len = %d exceeds capacity", c.Len())
	}
	st := c.Stats()
	if st.Hits+st.Misses != 8*200 {
		t.Errorf("lookups = %d, want %d", st.Hits+st.Misses, 8*200)
	}
}
