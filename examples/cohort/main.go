// Cohort analysis: a scientist runs the protein-annotation experiment
// eight times under two protocols and wants to see which executions
// behave alike. Pairwise provenance differencing yields a distance
// matrix; clustering recovers the two protocols; data annotations
// explain a residual difference between two control-flow-identical
// runs.
//
//	go run ./examples/cohort
package main

import (
	"fmt"
	"log"
	"math/rand"

	provdiff "repro"
)

func main() {
	sp, err := provdiff.ProteinAnnotation()
	if err != nil {
		log.Fatal(err)
	}

	// Protocol A: shallow search (few fork copies, single iteration).
	// Protocol B: exhaustive search (more copies, loops twice).
	protoA := provdiff.RunParams{ProbP: 1, ProbF: 0.3, MaxF: 2, ProbL: 0, MaxL: 1}
	protoB := provdiff.RunParams{ProbP: 1, ProbF: 0.9, MaxF: 4, ProbL: 1, MaxL: 2}

	rng := rand.New(rand.NewSource(7))
	var runs []*provdiff.Run
	var names []string
	for i := 0; i < 4; i++ {
		r, err := provdiff.RandomRun(sp, protoA, rng)
		if err != nil {
			log.Fatal(err)
		}
		runs = append(runs, r)
		names = append(names, fmt.Sprintf("shallow-%d", i+1))
	}
	for i := 0; i < 4; i++ {
		r, err := provdiff.RandomRun(sp, protoB, rng)
		if err != nil {
			log.Fatal(err)
		}
		runs = append(runs, r)
		names = append(names, fmt.Sprintf("deep-%d", i+1))
	}

	mx, err := provdiff.DistanceMatrix(runs, names, provdiff.Unit{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pairwise edit distances (unit cost):")
	fmt.Println(mx)

	// knn outlier scores: the outlier is the execution that behaves
	// least like any neighborhood of the cohort.
	scores, err := provdiff.Outliers(mx.D, 3)
	if err != nil {
		log.Fatal(err)
	}
	medoid := provdiff.Medoid(mx.D)
	fmt.Printf("medoid (most typical run):   %s\n", names[medoid])
	fmt.Printf("outlier (most unusual run):  %s (knn score %.2f)\n\n", names[scores[0].Index], scores[0].Score)

	root := mx.Cluster()
	fmt.Println("hierarchical clustering (UPGMA):")
	fmt.Print(root.Render())

	// k-medoids recovers the two protocols as flat clusters, each
	// summarized by its medoid — the most representative execution.
	cl, err := provdiff.KMedoids(mx.D, 2, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nk-medoids (k=2, silhouette %.2f):\n", cl.Silhouette)
	for c := 0; c < cl.K; c++ {
		fmt.Printf("  cluster around %s:", names[cl.Medoids[c]])
		for i, a := range cl.Assign {
			if a == c {
				fmt.Printf(" %s", names[i])
			}
		}
		fmt.Println()
	}

	// A data-level difference between the medoid and its nearest run.
	nn, err := provdiff.NearestNeighbors(mx.D, medoid, 1)
	if err != nil {
		log.Fatal(err)
	}
	i, j := medoid, nn[0].Index
	fmt.Printf("\nclosest pair: %s and %s (control-flow distance %g)\n", names[i], names[j], nn[0].Distance)
	a1 := provdiff.NewAnnotations()
	a2 := provdiff.NewAnnotations()
	// Annotate the shared first module with the protocol parameters.
	for nid, lbl := range map[string]string{"1a": "getProteinSeq"} {
		_ = lbl
		a1.SetParam(provdiff.NodeID(nid), "evalue", "1e-5")
		a2.SetParam(provdiff.NodeID(nid), "evalue", "1e-8")
	}
	res, err := provdiff.Diff(runs[i], runs[j], provdiff.Unit{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndata differences on the matched provenance:")
	fmt.Print(provdiff.DataDiff(res, a1, a2))
}
