// Command retro trains and queries relational embeddings.
//
// Subcommands:
//
//	generate -dataset tmdb|gplay -out DIR [-movies N] [-apps N] [-dim D] [-seed S]
//	    write a synthetic dataset as CSV files plus its base embedding
//	train    -data DIR -out FILE [-variant ro|rn] [-alpha A -beta B -gamma G -delta D] [-iters N]
//	    import the CSV directory, retrofit, write the embedding (binary)
//	query    -model FILE -key 'table.column:text' [-k N]
//	    nearest neighbours of a trained value embedding
//	info     -data DIR
//	    print the imported schema and extraction statistics
//	snapshot save  -data DIR -out FILE [-variant ro|rn] [-parallel N]
//	    train and persist the full session (store + HNSW graph) as a
//	    versioned snapshot for warm-starting retro-serve
//	snapshot info  -in FILE
//	    print a snapshot's header and provenance
//	snapshot query -in FILE -key 'table.column:text' [-k N]
//	    nearest neighbours served from a snapshot, no retraining
//	storage info -dir DIR
//	    inspect a retro-serve -data-dir directory: manifest, base
//	    snapshot, delta segments and the WAL's replay tail
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	retro "github.com/retrodb/retro"
	"github.com/retrodb/retro/internal/datagen"
	"github.com/retrodb/retro/internal/dataset"
	"github.com/retrodb/retro/internal/reldb"
	"github.com/retrodb/retro/internal/storage"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "snapshot":
		err = cmdSnapshot(os.Args[2:])
	case "storage":
		err = cmdStorage(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "retro:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: retro <generate|train|query|info|snapshot|storage> [flags]
run "retro <subcommand> -h" for the flags of each subcommand`)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	dataset := fs.String("dataset", "tmdb", "tmdb or gplay")
	out := fs.String("out", "", "output directory (required)")
	movies := fs.Int("movies", 300, "TMDB size")
	apps := fs.Int("apps", 300, "Google Play size")
	dim := fs.Int("dim", 48, "embedding dimensionality")
	seed := fs.Int64("seed", 1, "generator seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("generate: -out is required")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	var db *reldb.DB
	var emb *retro.Embedding
	switch *dataset {
	case "tmdb":
		w := datagen.TMDB(datagen.TMDBConfig{Movies: *movies, Dim: *dim, Seed: *seed})
		db, emb = w.DB, w.Embedding
	case "gplay":
		w := datagen.GooglePlay(datagen.GooglePlayConfig{Apps: *apps, Dim: *dim, Seed: *seed})
		db, emb = w.DB, w.Embedding
	default:
		return fmt.Errorf("generate: unknown dataset %q", *dataset)
	}
	for _, t := range db.Tables() {
		f, err := os.Create(filepath.Join(*out, t.Name+".csv"))
		if err != nil {
			return err
		}
		if err := t.ExportCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	f, err := os.Create(filepath.Join(*out, "embedding.bin"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := emb.WriteBinary(f); err != nil {
		return err
	}
	fmt.Printf("wrote %d tables + embedding (%d words, %d dims) to %s\n",
		db.NumTables(), emb.Len(), emb.Dim(), *out)
	return nil
}

// loadDir imports the `retro generate` layout via the shared loader.
func loadDir(dir string) (*retro.DB, *retro.Embedding, error) {
	return dataset.LoadDir(dir)
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	data := fs.String("data", "", "dataset directory from 'retro generate' (required)")
	out := fs.String("out", "", "output embedding file (required)")
	variant := fs.String("variant", "rn", "ro or rn")
	alpha := fs.Float64("alpha", -1, "alpha (default: paper setting)")
	beta := fs.Float64("beta", -1, "beta")
	gamma := fs.Float64("gamma", -1, "gamma")
	delta := fs.Float64("delta", -1, "delta")
	iters := fs.Int("iters", 10, "iterations")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" || *out == "" {
		return fmt.Errorf("train: -data and -out are required")
	}
	db, emb, err := loadDir(*data)
	if err != nil {
		return err
	}
	cfg := retro.Defaults()
	if *variant == "ro" {
		cfg.Variant = retro.RO
	}
	if *alpha >= 0 && *beta >= 0 && *gamma >= 0 && *delta >= 0 {
		cfg.Hyperparams = &retro.Hyperparams{Alpha: *alpha, Beta: *beta, Gamma: *gamma, Delta: *delta, Iterations: *iters}
	}
	model, err := retro.Retrofit(db, emb, cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := model.Store().WriteBinary(f); err != nil {
		return err
	}
	fmt.Printf("retrofitted %d text values (%s solver) -> %s\n", model.NumValues(), *variant, *out)
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	modelPath := fs.String("model", "", "trained embedding file (required)")
	key := fs.String("key", "", "'table.column:text' to look up (required)")
	k := fs.Int("k", 5, "number of neighbours")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" || *key == "" {
		return fmt.Errorf("query: -model and -key are required")
	}
	parts := strings.SplitN(*key, ":", 2)
	if len(parts) != 2 {
		return fmt.Errorf("query: key must be 'table.column:text'")
	}
	f, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	defer f.Close()
	store, err := retro.ReadBinaryEmbedding(f)
	if err != nil {
		return err
	}
	storeKey := parts[0] + "\x00" + parts[1]
	v, ok := store.VectorOf(storeKey)
	if !ok {
		return fmt.Errorf("query: no value %q in %s", parts[1], parts[0])
	}
	selfID, _ := store.ID(storeKey)
	for _, m := range store.TopK(v, *k, func(id int) bool { return id == selfID }) {
		col, text, _ := strings.Cut(m.Word, "\x00")
		fmt.Printf("%.4f  %-28s %s\n", m.Score, col, text)
	}
	return nil
}

func cmdSnapshot(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("snapshot: usage: retro snapshot <save|info|query> [flags]")
	}
	switch args[0] {
	case "save":
		return cmdSnapshotSave(args[1:])
	case "info":
		return cmdSnapshotInfo(args[1:])
	case "query":
		return cmdSnapshotQuery(args[1:])
	default:
		return fmt.Errorf("snapshot: unknown subcommand %q (want save, info or query)", args[0])
	}
}

func cmdSnapshotSave(args []string) error {
	fs := flag.NewFlagSet("snapshot save", flag.ExitOnError)
	data := fs.String("data", "", "dataset directory from 'retro generate' (required)")
	out := fs.String("out", "", "output snapshot file (required)")
	variant := fs.String("variant", "rn", "ro or rn")
	parallel := fs.Int("parallel", -1, "solver workers (-1 = all cores, 0 = sequential)")
	annThreshold := fs.Int("ann-threshold", 0, "vocabulary size that switches TopK to HNSW (0 = default, -1 = always exact)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" || *out == "" {
		return fmt.Errorf("snapshot save: -data and -out are required")
	}
	db, emb, err := loadDir(*data)
	if err != nil {
		return err
	}
	cfg := retro.Defaults()
	if *variant == "ro" {
		cfg.Variant = retro.RO
	}
	cfg.Parallel = *parallel
	cfg.ANNThreshold = *annThreshold
	sess, err := retro.NewSession(db, emb, cfg)
	if err != nil {
		return err
	}
	// Build the index now so the snapshot carries the graph and warm
	// boots skip construction too.
	sess.Model().Store().WarmANN()
	if err := sess.WriteSnapshotFile(*out); err != nil {
		return fmt.Errorf("snapshot save: %w", err)
	}
	withIndex := ""
	if sess.Model().Store().ANNIndex() != nil {
		withIndex = " + HNSW graph"
	}
	fmt.Printf("snapshot of %d text values%s written to %s\n", sess.Model().NumValues(), withIndex, *out)
	return nil
}

func cmdSnapshotInfo(args []string) error {
	fs := flag.NewFlagSet("snapshot info", flag.ExitOnError)
	in := fs.String("in", "", "snapshot file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("snapshot info: -in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := retro.ReadSnapshotInfo(f)
	if err != nil {
		return err
	}
	variant := "rn"
	if info.Variant == retro.RO {
		variant = "ro"
	}
	fmt.Printf("format version: %d\n", info.Version)
	fmt.Printf("created:        %s\n", info.Created.UTC().Format("2006-01-02 15:04:05 MST"))
	fmt.Printf("fingerprint:    %016x\n", info.Fingerprint)
	fmt.Printf("values:         %d (%d dims)\n", info.NumValues, info.Dim)
	fmt.Printf("solver:         %s (alpha=%g beta=%g gamma=%g delta=%g iters=%d)\n", variant,
		info.Hyperparams.Alpha, info.Hyperparams.Beta, info.Hyperparams.Gamma,
		info.Hyperparams.Delta, info.Hyperparams.Iterations)
	fmt.Printf("hnsw graph:     %v\n", info.HasIndex)
	if info.Quantization == retro.QuantSQ8 {
		fmt.Printf("quantization:   %s (rerank %d)\n", info.Quantization, info.Rerank)
	} else {
		fmt.Printf("quantization:   off\n")
	}
	fmt.Printf("columns:        %s\n", strings.Join(info.Categories, ", "))
	if len(info.ExcludeColumns) > 0 {
		fmt.Printf("excl. columns:  %s\n", strings.Join(info.ExcludeColumns, ", "))
	}
	if len(info.ExcludeRelations) > 0 {
		fmt.Printf("excl. relations: %s\n", strings.Join(info.ExcludeRelations, ", "))
	}
	return nil
}

func cmdStorage(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("storage: usage: retro storage info [flags]")
	}
	switch args[0] {
	case "info":
		return cmdStorageInfo(args[1:])
	default:
		return fmt.Errorf("storage: unknown subcommand %q (want info)", args[0])
	}
}

// cmdStorageInfo prints what a recovery of the directory would see: the
// manifest, the base snapshot it starts from, the delta segments it
// replays, the WAL tail past the last checkpoint, and last the HNSW
// graph it installs. Read-only — safe on a directory a live server is
// writing (a checkpoint racing the scan can at worst make the WAL line
// reflect the pre-rotation log).
func cmdStorageInfo(args []string) error {
	fs := flag.NewFlagSet("storage info", flag.ExitOnError)
	dir := fs.String("dir", "", "storage directory from 'retro-serve -data-dir' (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("storage info: -dir is required")
	}
	man, err := storage.ReadManifest(*dir)
	if err != nil {
		return fmt.Errorf("storage info: %w", err)
	}
	fmt.Printf("manifest:       epoch %d, checkpointed through wal seq %d\n", man.Epoch, man.WALSeq)

	basePath := filepath.Join(*dir, man.Base)
	baseLine := man.Base
	if fi, err := os.Stat(basePath); err == nil {
		baseLine += fmt.Sprintf("  (%d bytes)", fi.Size())
	}
	fmt.Printf("base:           %s\n", baseLine)
	baseGraph := false
	if f, err := os.Open(basePath); err == nil {
		if info, err := retro.ReadSnapshotInfo(f); err == nil {
			fmt.Printf("                %d values, %d dims, format v%d, written %s\n",
				info.NumValues, info.Dim, info.Version,
				info.Created.UTC().Format("2006-01-02 15:04:05 MST"))
			baseGraph = info.HasIndex
		}
		f.Close()
	}

	// The graph recovery installs is the last segment's, else the base's
	// while no segment changed a vector or carried a newer graph.
	segGraph := ""
	fmt.Printf("segments:       %d\n", len(man.Segments))
	for _, name := range man.Segments {
		segGraph = ""
		info, err := storage.ReadSegmentInfo(filepath.Join(*dir, name))
		if err != nil {
			fmt.Printf("  %-18s UNREADABLE: %v\n", name, err)
			baseGraph = false
			continue
		}
		fmt.Printf("  %-18s epochs [%d,%d)  %4d rows  %4d vectors  %8d bytes  graph %8d bytes\n",
			name, info.FromEpoch, info.ToEpoch, info.Rows, info.Vectors, info.Bytes, info.GraphBytes)
		if info.Vectors > 0 || info.GraphBytes > 0 {
			baseGraph = false
		}
		if info.GraphBytes > 0 {
			segGraph = fmt.Sprintf("%s  (%d bytes)", name, info.GraphBytes)
		}
	}
	graph := "none — recovery rebuilds the index"
	switch {
	case segGraph != "":
		graph = segGraph
	case baseGraph:
		graph = man.Base + "  (HNSW section)"
	}

	st, records, err := storage.ScanWALInfo(filepath.Join(*dir, man.WAL))
	if err != nil {
		return fmt.Errorf("storage info: scanning %s: %w", man.WAL, err)
	}
	fmt.Printf("wal:            %s  seq (%d, %d]  %d records  %d bytes\n",
		man.WAL, st.BaseSeq, st.LastSeq, st.Records, st.Bytes)
	if st.Truncated {
		fmt.Printf("                torn tail: recovery will cut the log to the last intact record\n")
	}
	tailRecords, tailRows := 0, 0
	for _, r := range records {
		if r.Seq > man.WALSeq {
			tailRecords++
			tailRows += r.Batch.NumRows()
		}
	}
	fmt.Printf("replay tail:    %d records / %d rows past the last checkpoint\n", tailRecords, tailRows)
	fmt.Printf("graph:          %s\n", graph)
	return nil
}

func cmdSnapshotQuery(args []string) error {
	fs := flag.NewFlagSet("snapshot query", flag.ExitOnError)
	in := fs.String("in", "", "snapshot file (required)")
	key := fs.String("key", "", "'table.column:text' to look up (required)")
	k := fs.Int("k", 5, "number of neighbours")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *key == "" {
		return fmt.Errorf("snapshot query: -in and -key are required")
	}
	parts := strings.SplitN(*key, ":", 2)
	if len(parts) != 2 {
		return fmt.Errorf("snapshot query: key must be 'table.column:text'")
	}
	table, column, ok := strings.Cut(parts[0], ".")
	if !ok {
		return fmt.Errorf("snapshot query: key must be 'table.column:text'")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	model, err := retro.LoadSnapshot(f)
	if err != nil {
		return err
	}
	ms, err := model.Neighbors(table, column, parts[1], *k)
	if err != nil {
		return err
	}
	for _, m := range ms {
		col, text, _ := strings.Cut(m.Word, "\x00")
		fmt.Printf("%.4f  %-28s %s\n", m.Score, col, text)
	}
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	data := fs.String("data", "", "dataset directory (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("info: -data is required")
	}
	db, emb, err := loadDir(*data)
	if err != nil {
		return err
	}
	fmt.Print(db.String())
	fmt.Printf("base embedding: %d words, %d dims\n", emb.Len(), emb.Dim())
	return nil
}
