package preset

import (
	"math/rand"
	"slices"
	"testing"

	"apf/internal/fl"
)

func TestLoadAllPresets(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			p, err := Load(name, 42)
			if err != nil {
				t.Fatal(err)
			}
			if p.Data == nil || p.Data.Len() == 0 {
				t.Fatal("preset has no data")
			}
			if p.Batch <= 0 {
				t.Fatal("preset has no batch size")
			}
			if p.Name != name {
				t.Errorf("preset name %q, want %q", p.Name, name)
			}
		})
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("nope", 1); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestInitVectorDeterministic(t *testing.T) {
	p, err := Load("mlp", 7)
	if err != nil {
		t.Fatal(err)
	}
	a := p.InitVector(7)
	b := p.InitVector(7)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("init vectors sized %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("InitVector not deterministic")
		}
	}
	c := p.InitVector(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical init")
	}
}

func TestPresetModelMatchesData(t *testing.T) {
	for _, name := range Names() {
		p, err := Load(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		net := p.Model(rand.New(rand.NewSource(1)))
		x, _ := p.Data.Gather([]int{0, 1, 2})
		logits := net.Forward(x, false)
		if logits.Shape[0] != 3 || logits.Shape[1] != p.Data.Classes {
			t.Errorf("%s: logits shape %v for %d classes", name, logits.Shape, p.Data.Classes)
		}
		// Preset optimizers must step without touching non-trainables.
		optim := p.Optimizer(net.Params())
		optim.Step()
	}
}

func TestPresetDataShared(t *testing.T) {
	// Server and client regenerate the identical dataset from (name, seed)
	// — the property the distributed binaries rely on.
	a, _ := Load("lenet", 9)
	b, _ := Load("lenet", 9)
	for i := range a.Data.X.Data {
		if a.Data.X.Data[i] != b.Data.X.Data[i] {
			t.Fatal("preset data not deterministic")
		}
	}
}

// TestInitVectorMatchesSimulator: a deployment seeded s (apf-server -seed s)
// starts from the model the simulator starts from at seed s.
func TestInitVectorMatchesSimulator(t *testing.T) {
	const seed = 3
	p, err := Load("lenet", seed)
	if err != nil {
		t.Fatal(err)
	}
	passthrough := func(int, int) fl.SyncManager { return fl.NewPassthroughManager(8) }
	e := fl.New(fl.Config{Rounds: 1, LocalIters: 1, BatchSize: p.Batch, Seed: seed},
		p.Model, p.Optimizer, passthrough, p.Data, [][]int{{0, 1}}, nil)
	if !slices.Equal(p.InitVector(seed), e.Global()) {
		t.Fatal("preset init differs from the simulator's initial global model")
	}
}
