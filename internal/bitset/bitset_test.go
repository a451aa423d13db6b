package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	b := New(130) // spans three words
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Fatalf("new bitset has bit %d set", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Count() != 8 {
		t.Errorf("Count = %d, want 8", b.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := New(10)
	for _, i := range []int{-1, 10, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", i)
				}
			}()
			b.Get(i)
		}()
	}
}

func TestRatioAndReset(t *testing.T) {
	b := New(4)
	if b.Ratio() != 0 {
		t.Error("empty ratio should be 0")
	}
	b.Set(0)
	b.Set(1)
	if b.Ratio() != 0.5 {
		t.Errorf("Ratio = %v, want 0.5", b.Ratio())
	}
	b.Reset()
	if b.Count() != 0 {
		t.Error("Reset failed")
	}
	empty := New(0)
	if empty.Ratio() != 0 {
		t.Error("zero-length ratio should be 0")
	}
}

func TestCloneEqual(t *testing.T) {
	b := New(100)
	b.Set(3)
	b.Set(99)
	c := b.Clone()
	if !b.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Set(50)
	if b.Equal(c) {
		t.Fatal("Equal missed a difference")
	}
	if b.Equal(New(99)) {
		t.Fatal("Equal ignored length")
	}
}

func TestWordsRoundTrip(t *testing.T) {
	b := New(70)
	b.Set(0)
	b.Set(69)
	got, err := FromWords(70, b.Words())
	if err != nil {
		t.Fatal(err)
	}
	if !b.Equal(got) {
		t.Fatal("FromWords round trip failed")
	}

	if _, err := FromWords(70, []uint64{1}); err == nil {
		t.Error("FromWords accepted wrong word count")
	}
	if _, err := FromWords(3, []uint64{0xFF}); err == nil {
		t.Error("FromWords accepted stray bits beyond the length")
	}
}

// Property: Count equals the number of distinct indices set.
func TestQuickCountMatchesSets(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		rng := rand.New(rand.NewSource(seed))
		b := New(n)
		set := make(map[int]bool)
		for i := 0; i < n/2; i++ {
			j := rng.Intn(n)
			b.Set(j)
			set[j] = true
		}
		if b.Count() != len(set) {
			return false
		}
		for j := 0; j < n; j++ {
			if b.Get(j) != set[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// FuzzFromWords checks the deserializer never panics and only accepts
// word slices that exactly back the claimed length.
func FuzzFromWords(f *testing.F) {
	f.Add(64, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(3, []byte{0xFF})
	f.Add(0, []byte{})
	f.Fuzz(func(t *testing.T, n int, raw []byte) {
		if n < 0 || n > 1<<20 {
			return
		}
		words := make([]uint64, len(raw)/8)
		for i := range words {
			for b := 0; b < 8; b++ {
				words[i] |= uint64(raw[i*8+b]) << (8 * b)
			}
		}
		bs, err := FromWords(n, words)
		if err != nil {
			return
		}
		// Round trip must be exact.
		again, err := FromWords(n, bs.Words())
		if err != nil || !bs.Equal(again) {
			t.Fatalf("round trip failed: %v", err)
		}
		if bs.Count() > n {
			t.Fatalf("count %d exceeds length %d", bs.Count(), n)
		}
	})
}
