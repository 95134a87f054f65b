package autotune

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/stonne/config"
)

// xgbTrialLogGolden is the SHA-256 of the XGB trial logs below, recorded
// before the cost-model trainer and the candidate sort were rewritten for
// speed. Those rewrites must leave every trial, in order, unchanged.
const xgbTrialLogGolden = "b435703def9813418bcd82e6567fcd001b8096a344baaab469a0acb759ac80a0"

// TestXGBTrialLogGolden pins the cycles-target XGB search over all eight
// AlexNet layers on MAERI-128, for tuner seeds 1–6, to a recorded hash of
// every trial's configuration and cost. Any change to model training,
// candidate ranking or the cycle counters that alters a single trial
// changes the hash.
func TestXGBTrialLogGolden(t *testing.T) {
	cfg := config.Default(config.MAERIDenseWorkload)
	h := sha256.New()
	for seed := int64(1); seed <= 6; seed++ {
		for _, l := range models.AlexNetLayers() {
			var (
				space   *Space
				measure MeasureFunc
				err     error
			)
			if l.Op == graph.OpConv2D {
				if space, err = ConvMappingSpace(l.Conv, cfg.MSSize); err != nil {
					t.Fatal(err)
				}
				measure = ConvCycleCost(cfg, l.Conv)
			} else {
				space = FCMappingSpace(l.K, l.N, cfg.MSSize)
				measure = FCCycleCost(cfg, l.M, l.K, l.N)
			}
			res, err := XGBTuner{}.Tune(space, measure, Options{Trials: 600, EarlyStopping: 120, Seed: seed})
			if err != nil {
				fmt.Fprintf(h, "err %v\n", err)
				continue
			}
			for _, tr := range res.Trials {
				fmt.Fprintf(h, "%s %v %v\n", tr.Config.String(), tr.Cost.Primary, tr.Cost.Secondary)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != xgbTrialLogGolden {
		t.Fatalf("XGB trial log hash = %s, want %s", got, xgbTrialLogGolden)
	}
}
