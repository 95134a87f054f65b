package farm_test

import (
	"testing"

	"repro/internal/farm"
	"repro/internal/stonne/config"
	"repro/internal/stonne/maeri"
	"repro/internal/stonne/mapping"
	"repro/internal/tensor"
)

// TestDryDenseMatchesShapedDense checks that a dry-run dense job, which
// carries only its M×K→N geometry, reports exactly what Engine.Dense does
// when handed zeroed operands of that shape: the same Stats for valid
// mappings and the same error for invalid ones, on AlexNet's fc6–fc8.
func TestDryDenseMatchesShapedDense(t *testing.T) {
	cfg := config.Default(config.MAERIDenseWorkload)
	mappings := []struct {
		mapping.FCMapping
		valid bool
	}{
		{mapping.FCMapping{TS: 8, TK: 16, TN: 1}, true},
		{mapping.FCMapping{TS: 64, TK: 2, TN: 1}, true},
		{mapping.FCMapping{TS: 3, TK: 5, TN: 1}, true}, // tiles that do not divide the layer
		{mapping.FCMapping{TS: 128, TK: 1, TN: 1}, true},
		{mapping.FCMapping{TS: 32, TK: 8, TN: 1}, false}, // 256 multipliers on a 128-MS array
		{mapping.FCMapping{TS: 4, TK: 4, TN: 2}, false},  // T_N > 1
	}
	eng, err := maeri.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.DryRun = true
	for _, l := range []struct {
		name    string
		m, k, n int
	}{{"fc6", 1, 9216, 4096}, {"fc7", 1, 4096, 4096}, {"fc8", 1, 4096, 1000}} {
		in, w := tensor.New(l.m, l.k), tensor.New(l.n, l.k)
		for _, c := range mappings {
			mp := c.FCMapping
			_, want, wantErr := eng.Dense(in, w, mp)
			got, gotErr := farm.Run(farm.Job{HW: cfg, Kind: farm.Dense, FCMapping: mp, M: l.m, K: l.k, N: l.n, DryRun: true})
			if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Fatalf("%s %v: dry job error %v, shaped Dense error %v", l.name, mp, gotErr, wantErr)
			}
			if (wantErr == nil) != c.valid {
				t.Fatalf("%s %v: shaped Dense error %v, want valid=%v", l.name, mp, wantErr, c.valid)
			}
			if wantErr != nil {
				continue
			}
			if got.Out != nil {
				t.Fatalf("%s %v: dry job returned an output tensor", l.name, mp)
			}
			if got.Stats != want {
				t.Fatalf("%s %v: dry job stats %+v, shaped Dense %+v", l.name, mp, got.Stats, want)
			}
		}
	}
}
