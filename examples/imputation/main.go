// Imputation: predict missing app categories the way §5.5.2 does — train
// embeddings with the category information hidden, then train the Fig. 5a
// imputer on the app-name vectors. Compare against mode imputation.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	retro "github.com/retrodb/retro"
	"github.com/retrodb/retro/internal/datagen"
)

func main() {
	// Synthetic Google-Play-like world (a stand-in for the Kaggle CSVs
	// §5.5.2 uses). The generator also returns the ground truth.
	world := datagen.GooglePlay(datagen.GooglePlayConfig{Apps: 260, Dim: 48, Seed: 7})

	// Train embeddings WITHOUT the category column and the genre
	// relation — the imputation target must not leak into the vectors.
	cfg := retro.Defaults()
	cfg.Variant = retro.RO
	cfg.ExcludeColumns = []string{"categories.name", "genres.name"}
	model, err := retro.Retrofit(world.DB, world.Embedding, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Assemble (app vector, category) pairs.
	var names []string
	for name := range world.AppCategory {
		if _, err := model.Vector("apps", "name", name); err == nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	split := len(names) * 2 / 3

	dim := model.Store().Dim()
	gather := func(ns []string) (*retro.Matrix, []int) {
		x := retro.NewMatrix(len(ns), dim)
		y := make([]int, len(ns))
		for i, n := range ns {
			v, _ := model.Vector("apps", "name", n)
			copy(x.Row(i), v)
			y[i] = world.AppCategory[n]
		}
		return x, y
	}
	trainX, trainY := gather(names[:split])
	testX, testY := gather(names[split:])

	// Fig. 5a imputer (scaled down for the example).
	imp := retro.NewCategoryImputer(dim, len(world.CategoryNames), retro.TaskConfig{
		Hidden1: 64, Hidden2: 32, Epochs: 80, Patience: 20, Seed: 2,
	})
	if _, err := imp.Fit(trainX, trainY); err != nil {
		log.Fatal(err)
	}

	// Mode baseline: always predict the most frequent training category.
	counts := map[int]int{}
	for _, y := range trainY {
		counts[y]++
	}
	mode, best := 0, -1
	for c, n := range counts {
		if n > best {
			mode, best = c, n
		}
	}
	modeCorrect := 0
	for _, y := range testY {
		if y == mode {
			modeCorrect++
		}
	}

	fmt.Printf("apps: %d train / %d test, %d categories\n", split, len(names)-split, len(world.CategoryNames))
	fmt.Printf("mode imputation accuracy:  %.3f\n", float64(modeCorrect)/float64(len(testY)))
	fmt.Printf("RETRO (RO) imputation:     %.3f\n", imp.Accuracy(testX, testY))
	fmt.Println("\nthe gap is the paper's Fig. 12b story: review text is only")
	fmt.Println("reachable through the FK relation, so single-table methods miss it")
}
