// Command groupsel runs the locality-sensitive grouping strategy (paper
// §II.D) on a latency matrix and prints the selected virtual cluster.
//
// Input is either the built-in PlanetLab-like dataset (-planetlab) or a
// whitespace-separated N×N matrix of RTTs in milliseconds on stdin.
//
//	groupsel -planetlab -k 8
//	groupsel -k 4 < matrix.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strconv"

	"wavnet"
	"wavnet/internal/grouping"
	"wavnet/internal/planetlab"
	"wavnet/internal/sim"
)

func main() {
	k := flag.Int("k", 8, "cluster size")
	usePL := flag.Bool("planetlab", false, "use the built-in 400-host dataset")
	seed := flag.Int64("seed", 1, "dataset seed")
	compare := flag.Bool("compare", true, "also show random selection and (for small N) the exact optimum")
	flag.Parse()

	var rtts [][]sim.Duration
	if *usePL {
		rtts = planetlab.Generate(*seed, planetlab.Hosts).RTT
	} else {
		var err error
		rtts, err = readMatrix(os.Stdin)
		if err != nil {
			log.Fatalf("reading matrix: %v", err)
		}
	}
	n := len(rtts)
	fmt.Printf("%d candidate hosts, selecting k=%d\n\n", n, *k)

	loc, err := wavnet.GroupLocality(rtts, *k)
	if err != nil {
		log.Fatal(err)
	}
	report := func(name string, g []int) {
		fmt.Printf("%-18s hosts=%v\n%-18s avg=%.2f ms max=%.2f ms\n", name, g, "",
			float64(wavnet.GroupMeanLatency(rtts, g))/1e6,
			float64(wavnet.GroupMaxLatency(rtts, g))/1e6)
	}
	report("locality-sensitive", loc)
	if *compare {
		rnd, _ := wavnet.GroupRandom(rtts, *k, rand.New(rand.NewSource(*seed)))
		report("random", rnd)
		if n <= 20 && *k <= 6 {
			exact, err := grouping.BruteForce(rtts, *k)
			if err == nil {
				report("exact optimum", exact)
			}
		}
	}
}

func readMatrix(f *os.File) ([][]sim.Duration, error) {
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var vals []float64
	for sc.Scan() {
		for _, tok := range splitFields(sc.Text()) {
			v, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
	}
	n := 1
	for n*n < len(vals) {
		n++
	}
	if n*n != len(vals) {
		return nil, fmt.Errorf("%d values is not a square matrix", len(vals))
	}
	m := make([][]sim.Duration, n)
	for i := range m {
		m[i] = make([]sim.Duration, n)
		for j := range m[i] {
			m[i][j] = sim.Duration(vals[i*n+j] * 1e6)
		}
	}
	return m, nil
}

func splitFields(s string) []string {
	var out []string
	field := ""
	for _, r := range s {
		if r == ' ' || r == '\t' || r == ',' {
			if field != "" {
				out = append(out, field)
				field = ""
			}
			continue
		}
		field += string(r)
	}
	if field != "" {
		out = append(out, field)
	}
	return out
}
