package expt

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"duplexity/internal/core"
)

// microSimPins holds TestMicroSimGolden's golden cells at Scale 0.05 and
// Seed 1, in core.AllDesigns order: one open-loop matrix cell and one
// closed-loop slowdown cell per design. Keyed by core.ModelVersion like
// twoPhasePins: a deliberate model bump adds a key rather than editing
// one.
var microSimPins = map[string]struct{ matrix, slowdown []twoPhasePin }{
	"hpca19-duplexity-v1": {
		matrix: []twoPhasePin{
			{"daf5d0cce0d8ca6cc75f4f0657c3b228128dec338cf518239e061f47f1b83875", "9845a197940bc7f1e675abda3fc99061c37c83871c3d1cdef783b9976c4f590a"},
			{"91bdd9d23a3f6bc5dc1ae8271a4daa59a3b2a898c4e5717f3b6ae4d09687f31a", "3d6fbcc272831aa2210e5d49b3c970a9ef346f2ed20ecc0f940a2629ed304b86"},
			{"d513c002301dbb2ccc63b56fcf7828904e8a9bba24f822a34f690fba93b9c629", "8b4ce4bbee01be395e3c1e1603e6da8f4ceb9ca7273372a8317608a59e557884"},
			{"e3a599de87332b0352b3332dcfef361d7c27978b5785d41d593ee8eaa530b397", "3f0b14b1cb1de9d484a96e113a4007ffb11e824cf6e3eeea5f9f0a43adaf0ac1"},
			{"3a4b771eb23178cba8f31367d539e3c60168bd3bb821c7d36df34958f0860ccf", "24d0b3050ba99d712076109e48277b8f4bbf5536a0a7d1daad1e0827c5bbaac7"},
			{"ab57c1a203db4947e84ca0688dc363032c444d979d9250bdad57c625ffa5e04d", "ca2d4146a51d4db23e1311d0ebe08873d51d0e6b9da2f9810db1ef291a79638a"},
			{"17836b7e0f673e2b6e61f0e3e6550fe85a343709fa2254d2e29b092475e2637a", "90305ba7cfdc26845bd8acc9bb186b3c4e899db16697ac16f860ab4929dbf61f"},
		},
		slowdown: []twoPhasePin{
			{"7e502aad39d25a21e19d84dd6d08681cea65532c5057e8ef0852e1df0df9d8fc", "885d969ae3a638e2843064291fba92aa7619cf27603d0126d00951b743e346f9"},
			{"0cd0b4d2dc2d5d2c242469d2d2ea5b65e4b234062199de752d629acfa8a58651", "47b25095a0fe135a688b20614771dbb445ad5e27e9cd4f2c2089c5af216e305b"},
			{"b44d9223c04906045087cc389ca89d539a9054bf309c66425ded94191ee5edd8", "47b25095a0fe135a688b20614771dbb445ad5e27e9cd4f2c2089c5af216e305b"},
			{"7524d33e622e74e8fdb8b3412923055bf6509b419c04fea8317cc9795c214159", "885d969ae3a638e2843064291fba92aa7619cf27603d0126d00951b743e346f9"},
			{"cac4488dc6bd2cd774e3cb41fc1c9348245da470cd6c3482b49760b5f99ffcc0", "885d969ae3a638e2843064291fba92aa7619cf27603d0126d00951b743e346f9"},
			{"22a5f349b84b03b228d6b0d6f07586248903d100aacc634430db2fd69e2cd0f8", "885d969ae3a638e2843064291fba92aa7619cf27603d0126d00951b743e346f9"},
			{"b6d6589cd6959c2ff7df31232ccd6b0cd427579c74a42373f01fe34f89c97e33", "885d969ae3a638e2843064291fba92aa7619cf27603d0126d00951b743e346f9"},
		},
	},
}

// The cycle-level micro-sim's output, pinned byte for byte: every
// design's matrix cell (the dyad with idle gaps, morphing and BSP
// fillers, no queueing) and its slowdown cell (the saturated
// closed-loop run tail cells build on). A host-side speedup in the CPU
// pipelines, caches, TLBs, memory system or filler generators must
// leave these bytes unchanged.
func TestMicroSimGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("fourteen cold micro-sims")
	}
	if raceEnabled {
		t.Skip("cold micro-sims are too slow under the race detector")
	}
	pins, ok := microSimPins[core.ModelVersion]
	if !ok {
		t.Fatalf("no golden pins for model %s", core.ModelVersion)
	}
	if len(pins.matrix) != len(core.AllDesigns) || len(pins.slowdown) != len(core.AllDesigns) {
		t.Fatalf("%d/%d golden pins for %d designs", len(pins.matrix), len(pins.slowdown), len(core.AllDesigns))
	}
	opts := Options{Scale: 0.05, Seed: 1}
	check := func(cs CellSpec, want twoPhasePin) {
		digest, result := rawFor(t, opts, cs)
		sum := sha256.Sum256(result)
		if digest != want.digest {
			t.Errorf("%s %s/%s: digest %s, want golden %s", cs.Kind, cs.Design, cs.Workload, digest, want.digest)
		}
		if got := hex.EncodeToString(sum[:]); got != want.resultSHA {
			t.Errorf("%s %s/%s: result bytes sha256 %s, want golden %s:\n%s",
				cs.Kind, cs.Design, cs.Workload, got, want.resultSHA, result)
		}
	}
	for i, d := range core.AllDesigns {
		check(CellSpec{Kind: KindMatrix, Design: d.String(), Workload: "McRouter", Load: 0.5}, pins.matrix[i])
		check(CellSpec{Kind: KindSlowdown, Design: d.String(), Workload: "RSC"}, pins.slowdown[i])
	}
}
