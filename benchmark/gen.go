package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
)

// tableSize is the number of distinct payloads a generator cycles
// through.  A power of two, so the lookup is a mask.
const tableSize = 1024

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// generator makes a workload's inputs from the seed: a table of
// payloads built before timing, of which item seq is entry seq mod
// tableSize with bytes 0–7 overwritten by seq.  The program under test
// sees only the items.  item returns the table's own storage, so a
// caller hands it to the system by a copying Put, or (gateway-mux)
// finishes with it before asking for seq+tableSize.
type generator struct {
	table [][]byte
	size  int
}

func newGenerator(seed int64, size int) *generator {
	if size < 8 {
		panic("benchmark: items carry an 8-byte sequence number")
	}
	rng := rand.New(rand.NewSource(seed))
	back := make([]byte, tableSize*size)
	rng.Read(back)
	g := &generator{table: make([][]byte, tableSize), size: size}
	for i := range g.table {
		g.table[i] = back[i*size : (i+1)*size : (i+1)*size]
	}
	return g
}

func (g *generator) item(seq uint64) []byte {
	p := g.table[seq&(tableSize-1)]
	binary.LittleEndian.PutUint64(p, seq)
	return p
}

// fold is the stream checksum both ends compute: each item's length
// and bytes folded into CRC-32C.
func fold(crc uint32, item []byte) uint32 {
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(item)))
	crc = crc32.Update(crc, castagnoli, l[:])
	return crc32.Update(crc, castagnoli, item)
}

// expect is the driver's side of the oracle: the fold of items
// [0, n) straight from the generator.
func (g *generator) expect(n int) uint32 {
	var crc uint32
	for seq := 0; seq < n; seq++ {
		crc = fold(crc, g.item(uint64(seq)))
	}
	return crc
}

// oracle is the consumer's side: count, order and checksum of what
// arrived.  One goroutine feeds it.
type oracle struct {
	count      int
	crc        uint32
	outOfOrder int
	cut        *slicer // a timed run's; nil on a warm-up
}

func (o *oracle) observe(item []byte) {
	if o.cut != nil {
		o.cut.tick()
	}
	if len(item) < 8 || binary.LittleEndian.Uint64(item) != uint64(o.count) {
		o.outOfOrder++
	}
	o.crc = fold(o.crc, item)
	o.count++
}

// verify returns the failures the stream shows against the generator:
// one per missing or surplus item, one per item out of order, one for
// a checksum mismatch.
func (o *oracle) verify(g *generator, want int) (failed int, why []string) {
	if o.count != want {
		d := want - o.count
		if d < 0 {
			d = -d
		}
		failed += d
		why = append(why, fmt.Sprintf("consumer saw %d items, generator made %d", o.count, want))
	}
	if o.outOfOrder > 0 {
		failed += o.outOfOrder
		why = append(why, fmt.Sprintf("%d items out of order", o.outOfOrder))
	}
	if o.count == want && o.outOfOrder == 0 && o.crc != g.expect(want) {
		failed++
		why = append(why, "CRC-32C of the stream differs from the generator's")
	}
	return failed, why
}
