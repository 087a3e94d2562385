package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"

	"influcomm/internal/gen"
	"influcomm/internal/graph"
	"influcomm/internal/kcore"
	"influcomm/internal/pagerank"
)

// graphInfo is one generated input graph file and its shape.
type graphInfo struct {
	Name     string `json:"name"`
	Path     string `json:"path"`
	N        int    `json:"n"`
	M        int64  `json:"m"`
	GammaMax int32  `json:"gamma_max"`
}

// input returns the graph file for (workload, seed, name), generating it
// on first use. Generated files are reused by later runs with the same
// seed, so generation never counts towards set-up time.
func (b *bench) input(name string, build func() (*graph.Graph, error)) (graphInfo, error) {
	base := filepath.Join(b.dir, "inputs", fmt.Sprintf("%s-seed%d-%s", b.workload, b.seed, name))
	info := graphInfo{Name: name, Path: base + ".bin"}
	if data, err := os.ReadFile(base + ".json"); err == nil && json.Unmarshal(data, &info) == nil {
		if _, err := os.Stat(info.Path); err == nil {
			b.recordGraph(info)
			return info, nil
		}
	}
	g, err := build()
	if err != nil {
		return info, fmt.Errorf("generating %s: %w", name, err)
	}
	info.N, info.M, info.GammaMax = g.NumVertices(), g.NumEdges(), kcore.MaxCore(g)
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return info, err
	}
	if err := writeGraph(info.Path, g); err != nil {
		return info, err
	}
	meta, err := json.Marshal(info)
	if err != nil {
		return info, err
	}
	if err := os.WriteFile(base+".json", meta, 0o644); err != nil {
		return info, err
	}
	b.recordGraph(info)
	// Return the generator's memory, so that a run that generated its
	// input starts from the same process state as one that reused it.
	debug.FreeOSMemory()
	return info, nil
}

func (b *bench) recordGraph(info graphInfo) {
	gs, _ := b.env["graphs"].([]graphInfo)
	b.env["graphs"] = append(gs, info)
	b.env["seed"] = b.seed
	b.env["workload"] = b.workload
}

// writeGraph writes g in the binary format through a temporary file, so
// an interrupted run never leaves a truncated input behind.
func writeGraph(path string, g *graph.Graph) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // a no-op once renamed
	w := bufio.NewWriter(f)
	if err := graph.WriteBinary(w, g); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// loadGraph is the program's own load of an input file.
func (b *bench) loadGraph(path string) (*graph.Graph, error) {
	var g *graph.Graph
	var err error
	b.tr.timed("graph.load", 0, 0, func() { g, err = graph.LoadFile(path) })
	return g, err
}

// socialPR is a Holme–Kim social graph with PageRank vertex weights, the
// paper's weighting for its social-network experiments.
func socialPR(n, edgesPerVertex int, seed uint64) (*graph.Graph, error) {
	g, err := gen.SocialNetwork(n, edgesPerVertex, 0.3, seed)
	if err != nil {
		return nil, err
	}
	return pagerank.Reweight(g, pagerank.Options{})
}

// disjointSocialPR is parts vertex-disjoint social graphs of n vertices
// each, as one graph with PageRank weights: cluster.Partition keeps
// components whole, so this is a graph a cluster can actually split.
func disjointSocialPR(parts, n, edgesPerVertex int, seed uint64) (*graph.Graph, error) {
	var b graph.Builder
	for p := 0; p < parts; p++ {
		g, err := gen.SocialNetwork(n, edgesPerVertex, 0.3, seed+uint64(p))
		if err != nil {
			return nil, err
		}
		off := int32(p * n)
		for u := int32(0); int(u) < g.NumVertices(); u++ {
			b.AddVertex(off+g.OrigID(u), g.Weight(u))
		}
		for u := int32(0); int(u) < g.NumVertices(); u++ {
			for _, v := range g.UpNeighbors(u) {
				b.AddEdge(off+g.OrigID(u), off+g.OrigID(v))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return pagerank.Reweight(g, pagerank.Options{})
}

// subSeed derives an independent seed for one use of the workload seed.
func (b *bench) subSeed(tag uint64) uint64 {
	x := b.seed*0x9E3779B97F4A7C15 + tag*0xBF58476D1CE4E5B9 + 1
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	return x ^ x>>29
}

// rng returns a generator for element i of the stream named tag.
func (b *bench) rng(tag uint64, i int) *gen.RNG {
	return gen.NewRNG(b.subSeed(tag) ^ uint64(i)*0xD6E8FEB86659FD93)
}
