package core_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"asymstream/internal/kernel"
	"asymstream/internal/uid"

	"asymstream/internal/transput/internal/core"
	"asymstream/internal/transput/internal/pull"
	"asymstream/internal/transput/internal/push"
)

// The registry's oracle: a port's channel set driven by random
// Declare/Retire/Lookup/Adverts/Abort/Buffered sequences, by number and
// by capability, on both faces a port declares on, against a model
// that is a map of lookup key → the reference (record and generation)
// the live channel was issued under.  A lookup never returns a retired
// generation, the index holds exactly the model, and Adverts lists
// exactly the live channels, ordered by (Num, Cap).

// regRig is one registry behind its face and a kernel, with the model.
type regRig struct {
	fatalf  func(format string, args ...any)
	k       *kernel.Kernel
	id      uid.UID // the port's Eject, for OpAbort
	reg     *core.ChanRegistry
	capMode bool
	input   bool
	declare func(name string, num core.ChannelNum, capacity int) (handle any, ref core.ChanRef)
	retire  func(handle any) bool
}

// regModel is what the registry should hold: the live channels by
// lookup key, and the keys retired since.
type regModel struct {
	live map[core.ChannelID]*modelChan
	dead []core.ChannelID
}

type modelChan struct {
	ref      core.ChanRef
	id       core.ChannelID // as advertised
	name     string
	handle   any
	capacity int
	buffered int
	aborted  bool
}

func newRegModel() *regModel { return &regModel{live: map[core.ChannelID]*modelChan{}} }

func newRegRig(t testing.TB, k *kernel.Kernel, input, capMode bool) *regRig {
	r := &regRig{fatalf: t.Fatalf, k: k, capMode: capMode, input: input}
	var eject portEject
	if input {
		p := push.NewWOInPort(k, push.WOInPortConfig{CapabilityMode: capMode})
		r.reg, eject = p.Registry(), portEject{p.Serve}
		r.declare = func(name string, num core.ChannelNum, capacity int) (any, core.ChanRef) {
			h := p.Declare(name, num, capacity, 1)
			return h, h.Ref()
		}
		r.retire = func(h any) bool { return p.Retire(h.(*push.ChannelReader)) }
	} else {
		p := pull.NewOutPort(k, pull.OutPortConfig{CapabilityMode: capMode})
		r.reg, eject = p.Registry(), portEject{p.Serve}
		r.declare = func(name string, num core.ChannelNum, capacity int) (any, core.ChanRef) {
			h := p.Declare(name, num, capacity)
			return h, h.Ref()
		}
		r.retire = func(h any) bool { return p.Retire(h.(*pull.ChannelWriter)) }
	}
	var err error
	if r.id, err = k.Create(eject, 0); err != nil {
		t.Fatal(err)
	}
	return r
}

// key is the identifier a lookup resolves: the capability in
// capability mode, the number otherwise.
func (r *regRig) key(id core.ChannelID) core.ChannelID {
	if r.capMode {
		return core.CapChan(id.Cap)
	}
	return core.Chan(id.Num)
}

func (r *regRig) doDeclare(m *regModel, num core.ChannelNum, capacity int) {
	name := fmt.Sprintf("c%d", num)
	h, ref := r.declare(name, num, capacity)
	id, got := ref.Ident()
	if got != name || id.Num != num || id.IsCap() != r.capMode {
		r.fatalf("declared %q/%d, the record says %q/%v", name, num, got, id)
	}
	k := r.key(id)
	if _, dup := m.live[k]; dup {
		r.fatalf("declare issued %v, already live", k)
	}
	m.live[k] = &modelChan{ref: ref, id: id, name: name, handle: h, capacity: capacity}
}

func (r *regRig) doRetire(m *regModel, k core.ChannelID) {
	c := m.live[k]
	if !r.retire(c.handle) {
		r.fatalf("retire %v found it already gone", k)
	}
	if r.retire(c.handle) {
		r.fatalf("retire %v tore it down twice", k)
	}
	delete(m.live, k)
	m.dead = append(m.dead, k)
}

// doLookup resolves k, which is live, retired or both (a number
// declared again), and checks the answer against the model.
func (r *regRig) doLookup(m *regModel, k core.ChannelID) {
	ref, st := r.reg.Lookup(k)
	if c, ok := m.live[k]; ok {
		if st != core.StatusOK || ref != c.ref {
			r.fatalf("lookup %v = %v gen %d, want the live gen %d", k, st, ref.Gen(), c.ref.Gen())
		}
		return
	}
	if st != r.reg.MissStatus() || ref != (core.ChanRef{}) {
		r.fatalf("lookup of retired %v = %v (gen %d), want %v", k, st, ref.Gen(), r.reg.MissStatus())
	}
}

// doPut adds one item through the face's fill; doTake drains one.
func (r *regRig) doPut(c *modelChan) {
	item := []byte("x")
	if r.input {
		rep := c.ref.Absorb(&core.DeliverRequest{Items: [][]byte{item}})
		if rep == nil || rep.Status != core.StatusOK {
			r.fatalf("absorb into %v: %+v", c.id, rep)
		}
		core.DeliverReplies.Put(rep)
	} else if err := c.ref.Put(item, true); err != nil {
		r.fatalf("put into %v: %v", c.id, err)
	}
	c.buffered++
}

func (r *regRig) doTake(c *modelChan) {
	if r.input {
		if _, err := c.ref.Next(); err != nil {
			r.fatalf("next from %v: %v", c.id, err)
		}
	} else {
		rep := c.ref.Take(1, nil)
		if rep == nil || rep.Status != core.StatusOK || len(rep.Items) != 1 {
			r.fatalf("take from %v: %+v", c.id, rep)
		}
		core.TransferReplies.Put(rep)
	}
	c.buffered--
}

// doAbort sends OpAbort for one channel, or for all of them.
func (r *regRig) doAbort(m *regModel, k core.ChannelID, all bool) {
	req := &core.AbortRequest{Channel: k, Msg: "oracle", All: all}
	if _, err := r.k.Invoke(uid.Nil, r.id, core.OpAbort, req); err != nil {
		r.fatalf("abort: %v", err)
	}
	for key, c := range m.live {
		if all || key == k {
			c.aborted, c.buffered = true, 0
		}
	}
}

// compareAdverts orders adverts by (Num, Cap); sortAdverts sorts by it.
func compareAdverts(a, b core.ChannelAdvert) int {
	return cmp.Or(cmp.Compare(a.ID.Num, b.ID.Num), a.ID.Cap.Compare(b.ID.Cap))
}

func sortAdverts(ads []core.ChannelAdvert) { slices.SortFunc(ads, compareAdverts) }

// check compares the registry with the model: Adverts, the buffered
// total, and the index entry by entry.
func (r *regRig) check(m *regModel) {
	dir := "out"
	if r.input {
		dir = "in"
	}
	want := make([]core.ChannelAdvert, 0, len(m.live))
	var buffered int64
	for _, c := range m.live {
		want = append(want, core.ChannelAdvert{Name: c.name, ID: c.id, Dir: dir})
		buffered += int64(c.buffered)
	}
	sortAdverts(want)
	if got := r.reg.Adverts(); !slices.Equal(got, want) {
		r.fatalf("adverts %v, want %v", got, want)
	}
	if n := r.reg.Sum(func(c *core.Channel) int64 { return int64(c.Buffered()) }); n != buffered {
		r.fatalf("%d items buffered, the model holds %d", n, buffered)
	}
	index := r.reg.Index()
	if len(index) != len(m.live) {
		r.fatalf("the index holds %d entries, %d channels are live", len(index), len(m.live))
	}
	for k, c := range m.live {
		if ref, ok := index[k]; !ok || ref != c.ref {
			r.fatalf("index entry %v: %v (gen %d), want gen %d", k, ok, ref.Gen(), c.ref.Gen())
		}
	}
}

// step applies operation op, drawn from [0, 100): below 88 it touches
// only m's channels, 88 and 89 abort every channel, and 90 and over
// check the registry against m.  nums is the number space Declare
// draws from: live numbers are skipped in number mode, so a retired
// number comes back under a new generation.
func (r *regRig) step(rng *rand.Rand, m *regModel, nums []core.ChannelNum, maxLive, op int) {
	k, c := anyLive(rng, m)
	switch {
	case op < 25:
		num := nums[rng.Intn(len(nums))]
		if _, taken := m.live[core.Chan(num)]; len(m.live) < maxLive && (r.capMode || !taken) {
			r.doDeclare(m, num, 1+rng.Intn(4))
		}
	case c == nil:
		// The rest need a live channel.
	case op < 40:
		r.doRetire(m, k)
	case op < 55:
		r.doLookup(m, k)
	case op < 65:
		if len(m.dead) > 0 {
			r.doLookup(m, m.dead[rng.Intn(len(m.dead))])
		}
	case op < 85:
		switch {
		case c.aborted:
		case c.buffered < c.capacity && op < 80:
			r.doPut(c)
		case c.buffered > 0:
			r.doTake(c)
		}
	case op < 88:
		r.doAbort(m, k, false)
	case op < 90:
		r.doAbort(m, core.ChannelID{}, true)
	default:
		r.check(m)
	}
}

// TestRegistryAgainstModel runs seeded random sequences through each
// face in each addressing mode, checking the registry against the model
// every few steps and at the end.
func TestRegistryAgainstModel(t *testing.T) {
	nums := make([]core.ChannelNum, 48)
	for i := range nums {
		nums[i] = core.ChannelNum(i)
	}
	for _, input := range []bool{false, true} {
		for _, capMode := range []bool{false, true} {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("input=%v/capMode=%v/seed=%d", input, capMode, seed), func(t *testing.T) {
					r := newRegRig(t, testKernel(t), input, capMode)
					rng, m := rand.New(rand.NewSource(seed)), newRegModel()
					for range 1500 {
						r.step(rng, m, nums, 40, rng.Intn(100))
					}
					r.check(m)
				})
			}
		}
	}
}

// TestRegistryStorm races four workers, each with its own numbers and
// its own model, through Declare/Retire/Lookup/Put/Take on one
// registry, against two readers calling Adverts and Sum throughout.
// At the end of each round — quiescent — the registry must hold
// exactly the union of the workers' models; then one OpAbort(All)
// aborts every live channel.
func TestRegistryStorm(t *testing.T) {
	const (
		workers = 4
		rounds  = 12
		steps   = 150
	)
	for _, input := range []bool{false, true} {
		for _, capMode := range []bool{false, true} {
			t.Run(fmt.Sprintf("input=%v/capMode=%v", input, capMode), func(t *testing.T) {
				r := newRegRig(t, testKernel(t), input, capMode)
				models := make([]*regModel, workers)
				nums := make([][]core.ChannelNum, workers)
				for w := range workers {
					models[w] = newRegModel()
					for i := range 24 {
						nums[w] = append(nums[w], core.ChannelNum(1000*w+i))
					}
				}
				workerRig := func(w int) *regRig {
					wr := *r
					wr.fatalf = func(format string, args ...any) {
						t.Errorf("worker %d: "+format, append([]any{w}, args...)...)
						runtime.Goexit()
					}
					return &wr
				}
				for round := range rounds {
					var stop atomic.Bool
					var readers, ws sync.WaitGroup
					for range 2 {
						readers.Add(1)
						go func() {
							defer readers.Done()
							for !stop.Load() {
								ads := r.reg.Adverts()
								if !slices.IsSortedFunc(ads, compareAdverts) {
									t.Errorf("round %d: adverts out of order: %v", round, ads)
									return
								}
								for i := 1; i < len(ads); i++ {
									if ads[i].ID == ads[i-1].ID {
										t.Errorf("round %d: %v advertised twice", round, ads[i].ID)
										return
									}
								}
								if n := r.reg.Sum(func(c *core.Channel) int64 { return int64(c.Buffered()) }); n < 0 {
									t.Errorf("round %d: %d items buffered", round, n)
									return
								}
							}
						}()
					}
					for w := range workers {
						ws.Add(1)
						go func() {
							defer ws.Done()
							wr, rng := workerRig(w), rand.New(rand.NewSource(int64(round*workers+w)))
							for range steps {
								// Abort-all reaches the other workers'
								// channels, so it waits for the quiescent point.
								wr.step(rng, models[w], nums[w], 16, rng.Intn(88))
							}
						}()
					}
					ws.Wait()
					stop.Store(true)
					readers.Wait()
					if t.Failed() {
						return
					}
					union := newRegModel()
					for _, m := range models {
						for k, c := range m.live {
							union.live[k] = c
						}
					}
					r.check(union)
					r.doAbort(union, core.ChannelID{}, true)
					r.check(union)
				}
			})
		}
	}
}

// anyLive picks a live channel of m, or nil.
func anyLive(rng *rand.Rand, m *regModel) (core.ChannelID, *modelChan) {
	keys := make([]core.ChannelID, 0, len(m.live))
	for k := range m.live {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return core.ChannelID{}, nil
	}
	slices.SortFunc(keys, func(a, b core.ChannelID) int {
		return cmp.Or(cmp.Compare(a.Num, b.Num), a.Cap.Compare(b.Cap))
	})
	k := keys[rng.Intn(len(keys))]
	return k, m.live[k]
}
