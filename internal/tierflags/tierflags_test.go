package tierflags

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"

	"apf/internal/preset"
	"apf/internal/transport"
	"apf/internal/wire"
)

func resolve(t *testing.T, seed int64, args ...string) (*Flags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Bind(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f, f.Resolve(seed)
}

func TestDefaults(t *testing.T) {
	f, err := resolve(t, 7)
	if err != nil {
		t.Fatal(err)
	}
	if f.IOTimeout != 30*time.Second || f.RoundDeadline != 0 || f.MinClients != 1 ||
		f.CheckpointDir != "" || f.SnapshotEvery != 5 || f.HistoryRounds != 0 {
		t.Errorf("defaults %+v", f)
	}
	if f.Shadow != nil || f.Validator != nil || f.Codec != wire.CodecDense {
		t.Errorf("defaults arm shadow %v, validator %v, codec %s", f.Shadow, f.Validator, f.Codec)
	}
}

func TestResolveArms(t *testing.T) {
	f, err := resolve(t, 7, "-shadow", "-max-norm-mult", "3", "-cosine-floor", "-0.5",
		"-round-norm-mult", "1.5", "-codec", "sparse-q16", "-history-rounds", "4")
	if err != nil {
		t.Fatal(err)
	}
	// The shadow must be the clients' manager config bit for bit.
	if want := preset.APFConfig(7); f.Shadow == nil || !reflect.DeepEqual(*f.Shadow, want) {
		t.Errorf("shadow config %+v, want %+v", f.Shadow, want)
	}
	if want := (transport.ValidatorConfig{MaxNormMult: 3, CosineFloor: -0.5, RoundNormMult: 1.5}); f.Validator == nil || *f.Validator != want {
		t.Errorf("validator %+v, want %+v", f.Validator, want)
	}
	if f.Codec != wire.CodecSparseQ16 || f.HistoryRounds != 4 {
		t.Errorf("codec %s history %d", f.Codec, f.HistoryRounds)
	}
}

func TestResolveErrors(t *testing.T) {
	for _, tt := range []struct {
		args []string
		want string
	}{
		{[]string{"-io-timeout", "0s"}, "-io-timeout must be positive, got 0s"},
		{[]string{"-round-norm-mult", "2"}, "-cosine-floor and -round-norm-mult need -max-norm-mult to arm sanitization"},
		{[]string{"-codec", "zip"}, `-codec: wire: unknown codec "zip" (want dense, sparse, or sparse-q16)`},
		{[]string{"-history-rounds", "-1"}, "-history-rounds must be non-negative, got -1"},
		{[]string{"-snapshot-every", "0"}, "-snapshot-every must be positive, got 0"},
		{[]string{"-snapshot-every", "-2"}, "-snapshot-every must be positive, got -2"},
	} {
		if _, err := resolve(t, 1, tt.args...); err == nil || err.Error() != tt.want {
			t.Errorf("%v: err = %v, want %q", tt.args, err, tt.want)
		}
	}
}
