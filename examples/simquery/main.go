// Simquery: FREDDY-style domain-specific similarity queries (§1, [4, 16]):
// combine SQL over the embedded relational engine with nearest-neighbour
// search over the retrofitted vectors, and maintain everything
// incrementally as rows arrive.
package main

import (
	"fmt"
	"log"
	"strings"

	retro "github.com/retrodb/retro"
	"github.com/retrodb/retro/internal/datagen"
)

func main() {
	world := datagen.TMDB(datagen.TMDBConfig{Movies: 150, Dim: 48, Seed: 11})

	// A live session keeps the vectors in sync with the data.
	sess, err := retro.NewSession(world.DB, world.Embedding, retro.Defaults())
	if err != nil {
		log.Fatal(err)
	}
	db := sess.DB()

	// Plain SQL works against the embedded engine...
	res := db.MustExec(`
		SELECT movies.title, persons.name
		FROM movies JOIN persons ON movies.director_id = persons.id
		ORDER BY movies.title LIMIT 3`)
	fmt.Println("SQL: three movies and their directors")
	for _, row := range res.Rows {
		fmt.Printf("  %-28q directed by %q\n", row[0].Str, row[1].Str)
	}

	// ...and the model answers similarity questions SQL cannot express:
	// "which directors are most similar to this one, considering both
	// their names and what they directed?"
	director := res.Rows[0][1].Str
	fmt.Printf("\nsimilarity: directors most similar to %q\n", director)
	matches, err := sess.Model().Neighbors("persons", "name", director, 8)
	if err != nil {
		log.Fatal(err)
	}
	shown := 0
	for _, m := range matches {
		col, text, _ := strings.Cut(m.Word, "\x00")
		if col != "persons.name" {
			continue
		}
		fmt.Printf("  %.3f  %s\n", m.Score, text)
		if shown++; shown == 3 {
			break
		}
	}

	// Inserting new rows updates the vectors incrementally — no
	// re-training (§1's incremental maintenance property).
	before := sess.Model().NumValues()
	// A row in column order: id, title, overview, original_language,
	// budget, revenue, popularity, director_id.
	if err := sess.Insert("movies", []retro.Value{
		retro.Int(9001), retro.Text("the phantom reel"), retro.Null, retro.Text("english"),
		retro.Null, retro.Null, retro.Null, retro.Int(0),
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninserted a movie: %d -> %d text values\n", before, sess.Model().NumValues())
	nb, err := sess.Model().Neighbors("movies", "title", "the phantom reel", 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("neighbours of the new title (placed without re-training):")
	for _, m := range nb {
		col, text, _ := strings.Cut(m.Word, "\x00")
		fmt.Printf("  %.3f  %-20s (%s)\n", m.Score, text, col)
	}
}
