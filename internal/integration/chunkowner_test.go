package integration_test

import (
	"bytes"
	"fmt"
	"testing"

	"m3r/internal/engine"
	"m3r/internal/formats"
	"m3r/internal/lab"
	"m3r/internal/microbench"
	"m3r/internal/spill"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/x10"
)

// chunkCeiling is the largest chunk an unbudgeted remote shuffle buffer
// (spill.GetObjectBuffer) takes for objects that fit one.
const chunkCeiling = 128 << 10

// writeSizedInput writes a microbenchmark input whose values run through the
// sizes that matter to the shuffle's ownership rule: one byte, either side of
// the floor from which a decoded value points into the arrived chunk, an
// ordinary 2 KiB, and one larger than two ceiling-sized chunks.
func writeSizedInput(t *testing.T, c *lab.Cluster, cfg microbench.Config) {
	t.Helper()
	sizes := []int{1, wio.OwnedFloor - 1, wio.OwnedFloor, 2048, 2*chunkCeiling + 1}
	files := make([][]wio.Pair, cfg.Partitions)
	for i := 0; i < cfg.Pairs; i++ {
		val := bytes.Repeat([]byte{byte('a' + i%26)}, sizes[i%len(sizes)])
		q := i % cfg.Partitions
		files[q] = append(files[q], wio.Pair{Key: types.NewInt(int32(i)), Value: types.NewBytes(val)})
	}
	for q, pairs := range files {
		path := fmt.Sprintf("%s/part-%05d", cfg.InputDir(), q)
		if err := formats.WriteSeqFile(c.FS, path, types.IntName, types.BytesName, pairs); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRemoteValuesOutliveTheirStreams is the shuffle's ownership rule end to
// end. With every chunk that goes back to the pool overwritten first, the
// all-remote microbenchmark and a pipeline over values of every interesting
// size run twice back to back on one M3R engine; then the first round's
// final outputs are read back out of the cache — the objects the reducers
// were handed, whose bytes may be the arrived chunks themselves — and must
// be, pair for pair, what the Hadoop engine wrote for the same input. A chunk
// returned while a value still pointed into it shows up here as 0xDB bytes.
// Over the TCP loopback what arrives is the socket's own buffer, and every
// sent chunk goes back: same check, other half of the rule.
func TestRemoteValuesOutliveTheirStreams(t *testing.T) {
	defer spill.PoisonRecycledBlocks.Store(spill.PoisonRecycledBlocks.Swap(true))
	const places = 3
	for _, transport := range []string{"inproc", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			var tr x10.Transport
			if transport == "tcp" {
				tr = x10.NewTCPTransport(startFrameServers(t, places, x10.FrameServerOptions{}), x10.TCPOptions{})
			}
			c := newCluster(t, lab.Options{Nodes: places, Transport: tr})
			pipelines := func(engineName string, round int) []microbench.Config {
				dir := fmt.Sprintf("/own/%s%d", engineName, round)
				return []microbench.Config{
					{Pairs: 240, ValueBytes: 2048, Percent: 100, Iterations: 3, Partitions: places, Dir: dir + "/micro", Seed: 7},
					{Pairs: 45, Percent: 100, Iterations: 3, Partitions: places, Dir: dir + "/sized", Seed: 7},
				}
			}
			run := func(engineName string, round int) {
				t.Helper()
				eng := map[string]engine.Engine{"m3r": c.M3R, "hadoop": c.Hadoop}[engineName]
				cfgs := pipelines(engineName, round)
				if err := microbench.Generate(c.FS, cfgs[0]); err != nil {
					t.Fatal(err)
				}
				writeSizedInput(t, c, cfgs[1])
				for _, cfg := range cfgs {
					if _, err := microbench.Run(eng, cfg); err != nil {
						t.Fatalf("%s round %d %s: %v", engineName, round, cfg.Dir, err)
					}
				}
			}
			run("hadoop", 1)
			run("m3r", 1)
			run("m3r", 2)

			cache := c.M3R.CachingFS().Cache()
			want, got := pipelines("hadoop", 1), pipelines("m3r", 1)
			for i := range want {
				for q := 0; q < places; q++ {
					part := fmt.Sprintf("/final/part-%05d", q)
					ref, err := formats.ReadSeqFileAll(c.FS, want[i].Dir+part)
					if err != nil {
						t.Fatal(err)
					}
					cached, ok, err := cache.PathPairs(got[i].Dir + part)
					if err != nil || !ok {
						t.Fatalf("%s%s: cached %v, %v", got[i].Dir, part, ok, err)
					}
					if len(cached) != len(ref) || len(ref) == 0 {
						t.Fatalf("%s%s: %d pairs cached, hadoop wrote %d", got[i].Dir, part, len(cached), len(ref))
					}
					for j := range ref {
						if !wio.Equal(cached[j].Key, ref[j].Key) || !wio.Equal(cached[j].Value, ref[j].Value) {
							t.Fatalf("%s%s pair %d: cached value of %d bytes differs from hadoop's of %d",
								got[i].Dir, part, j, len(cached[j].Value.(*types.BytesWritable).B), len(ref[j].Value.(*types.BytesWritable).B))
						}
					}
				}
			}
		})
	}
}
