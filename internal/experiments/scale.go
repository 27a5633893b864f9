package experiments

import (
	"github.com/retrodb/retro/internal/core"
	"github.com/retrodb/retro/internal/datagen"
	"github.com/retrodb/retro/internal/deepwalk"
	"github.com/retrodb/retro/internal/ml"
)

// Scale bundles every knob that trades fidelity for runtime. The paper
// runs on 493k text values and 300-d Google News vectors; Small keeps the
// same shapes at laptop speed, Full approaches paper-sized runs.
type Scale struct {
	Name string

	Movies int // TMDB size
	Apps   int // Google Play size
	Dim    int // base embedding dimensionality (paper: 300)

	Repeats int // per-experiment repetitions (paper: 10, Fig. 9: 20)

	// Classification / imputation sample counts.
	BinaryTrain int // per class (paper: 1500 train + 1500 test per class)
	BinaryTest  int
	ImputeTrain int // paper: 5000 (languages) / 400 (apps)
	ImputeTest  int
	RegressN    int // paper: 9000 train + 1000 test

	NN ml.Config // task-network scale (paper: 600/300 hidden units)
	DW deepwalk.Config

	ROParams core.Hyperparams
	RNParams core.Hyperparams

	Seed int64
}

// SmallScale is the default configuration: every experiment shape in
// minutes on one core. The paper's sizes are noted beside the fields of
// Scale.
func SmallScale() Scale {
	return Scale{
		Name:        "small",
		Movies:      300,
		Apps:        320,
		Dim:         48,
		Repeats:     3,
		BinaryTrain: 45,
		BinaryTest:  40,
		ImputeTrain: 180,
		ImputeTest:  110,
		RegressN:    240,
		NN: ml.Config{
			Hidden1: 64, Hidden2: 32,
			Epochs: 60, BatchSize: 16, Patience: 15, LearnRate: 0.004,
		},
		DW: deepwalk.Config{
			WalksPerNode: 10, WalkLength: 30, Window: 4, Dim: 48, Epochs: 1,
		},
		ROParams: core.DefaultRO(),
		RNParams: core.DefaultRN(),
		Seed:     1,
	}
}

// FullScale approaches the paper's setup (Google-News-sized vectors are
// still synthetic; the databases grow an order of magnitude). Expect long
// runtimes.
func FullScale() Scale {
	s := SmallScale()
	s.Name = "full"
	s.Movies = 4000
	s.Apps = 2000
	s.Dim = 300
	s.Repeats = 10
	s.BinaryTrain = 1500
	s.BinaryTest = 1500
	s.ImputeTrain = 2500
	s.ImputeTest = 2500
	s.RegressN = 2000
	s.NN = ml.Config{Hidden1: 600, Hidden2: 300, Epochs: 300, BatchSize: 32, Patience: 50, LearnRate: 0.002}
	s.DW = deepwalk.Config{WalksPerNode: 10, WalkLength: 40, Window: 5, Dim: 300, Epochs: 1}
	return s
}

// TinyScale is for unit tests of the harness itself.
func TinyScale() Scale {
	s := SmallScale()
	s.Name = "tiny"
	s.Movies = 80
	s.Apps = 80
	s.Dim = 16
	s.Repeats = 1
	s.BinaryTrain = 24
	s.BinaryTest = 24
	s.ImputeTrain = 50
	s.ImputeTest = 40
	s.RegressN = 60
	s.NN = ml.Config{Hidden1: 24, Hidden2: 12, Epochs: 25, BatchSize: 8, Patience: 8, LearnRate: 0.006}
	s.DW = deepwalk.Config{WalksPerNode: 4, WalkLength: 12, Window: 3, Dim: 16, Epochs: 1}
	return s
}

// ByName resolves a scale preset.
func ByName(name string) (Scale, bool) {
	switch name {
	case "small", "":
		return SmallScale(), true
	case "full":
		return FullScale(), true
	case "tiny":
		return TinyScale(), true
	default:
		return Scale{}, false
	}
}

// tmdbWorld builds the TMDB world for this scale.
func (s Scale) tmdbWorld() *datagen.TMDBWorld {
	return datagen.TMDB(datagen.TMDBConfig{Movies: s.Movies, Dim: s.Dim, Seed: s.Seed})
}

// gplayWorld builds the Google Play world for this scale.
func (s Scale) gplayWorld() *datagen.GooglePlayWorld {
	return datagen.GooglePlay(datagen.GooglePlayConfig{Apps: s.Apps, Dim: s.Dim, Seed: s.Seed})
}

// dwConfig returns the DeepWalk configuration with a per-run seed.
func (s Scale) dwConfig(seed int64) deepwalk.Config {
	cfg := s.DW
	cfg.Seed = seed
	return cfg
}

// nnConfig returns the task-network configuration with a per-run seed.
func (s Scale) nnConfig(seed int64) ml.Config {
	cfg := s.NN
	cfg.Seed = seed
	return cfg
}

// GplayWorldForDebug exposes the Google Play world builder (debug only).
func (s Scale) GplayWorldForDebug() *datagen.GooglePlayWorld { return s.gplayWorld() }

// TmdbWorldForDebug exposes the TMDB world builder (debug only).
func (s Scale) TmdbWorldForDebug() *datagen.TMDBWorld { return s.tmdbWorld() }
