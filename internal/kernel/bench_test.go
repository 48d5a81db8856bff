package kernel

import (
	"fmt"
	"testing"

	"asymstream/internal/netsim"
	"asymstream/internal/uid"
)

// Kernel micro-benchmarks: the primitive costs under the pipeline
// measurements.  (The paper-level benchmarks live at the repo root.)

// The two dispatch paths, each with a number of its own.  Invoke from
// the Eject's own node is caller-runs: the invoker holds one of the
// target's worker slots and runs Serve itself.  AsyncInvoke(…).Wait()
// is the mailbox: a pool worker serves, and wakes the waiter.  The
// Parallel variants put GOMAXPROCS invokers on one Eject, where both
// paths contend on the binding's lock.

// benchPinger boots a kernel with one pinger on node 0.
func benchPinger(b *testing.B) (*Kernel, uid.UID) {
	b.Helper()
	k := New(Config{})
	b.Cleanup(k.Shutdown)
	id, err := k.Create(&pinger{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	return k, id
}

func syncPing(k *Kernel, id uid.UID, req *pingReq) error {
	_, err := k.Invoke(uid.Nil, id, "ping", req)
	return err
}

func asyncPing(k *Kernel, id uid.UID, req *pingReq) error {
	_, err := k.AsyncInvoke(uid.Nil, id, "ping", req).Wait()
	return err
}

func benchPingSerial(b *testing.B, ping func(*Kernel, uid.UID, *pingReq) error) {
	k, id := benchPinger(b)
	req := &pingReq{N: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ping(k, id, req); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPingParallel(b *testing.B, ping func(*Kernel, uid.UID, *pingReq) error) {
	k, id := benchPinger(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := &pingReq{N: 1}
		for pb.Next() {
			if err := ping(k, id, req); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkInvokeLocal(b *testing.B)              { benchPingSerial(b, syncPing) }
func BenchmarkAsyncInvokeLocal(b *testing.B)         { benchPingSerial(b, asyncPing) }
func BenchmarkInvokeLocalParallel(b *testing.B)      { benchPingParallel(b, syncPing) }
func BenchmarkAsyncInvokeLocalParallel(b *testing.B) { benchPingParallel(b, asyncPing) }

// BenchmarkCallerInvokeLocal is the inline path as every port takes it:
// through a Caller, which remembers the binding it invokes
// (BenchmarkInvokeLocal's Kernel.Invoke resolves it every time).
func BenchmarkCallerInvokeLocal(b *testing.B) {
	var c *Caller
	benchPingSerial(b, func(k *Kernel, id uid.UID, req *pingReq) error {
		if c == nil {
			c = k.Caller(uid.Nil)
		}
		_, err := c.Invoke(id, "ping", req)
		return err
	})
}

func BenchmarkInvokeCrossNodeGob(b *testing.B) {
	k := New(Config{Net: netsim.Config{Nodes: 2, EncodePayloads: true}})
	defer k.Shutdown()
	id, err := k.Create(&pinger{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	req := &pingReq{N: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Invoke(uid.Nil, id, "ping", req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvokeParallel puts GOMAXPROCS invokers on one kernel.  With
// ejects=1 and ejects=8 they share the targets' bindings; with
// disjoint, each invoker has its own Eject and its own Caller, so all
// they share is the kernel's own bookkeeping — the table read, the
// pools, the meters — and ns/op should be BenchmarkInvokeLocal's divided
// by the number of Ps.  What it is above that is contention the kernel
// adds (DESIGN §6).
func BenchmarkInvokeParallel(b *testing.B) {
	for _, ejects := range []int{1, 8} {
		b.Run(fmt.Sprintf("ejects=%d", ejects), func(b *testing.B) {
			k := New(Config{})
			defer k.Shutdown()
			ids := make([]uid.UID, ejects)
			for i := range ids {
				var err error
				ids[i], err = k.Create(&pinger{}, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				req := &pingReq{N: 1}
				for pb.Next() {
					if _, err := k.Invoke(uid.Nil, ids[i%ejects], "ping", req); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
	b.Run("disjoint", func(b *testing.B) {
		k, _ := benchPinger(b)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			id, err := k.Create(&pinger{}, 0)
			if err != nil {
				b.Error(err)
				return
			}
			caller := k.Caller(uid.Nil)
			req := &pingReq{N: 1}
			for pb.Next() {
				if _, err := caller.Invoke(id, "ping", req); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

func BenchmarkCheckpoint(b *testing.B) {
	k := New(Config{StoreHistory: 2})
	defer k.Shutdown()
	p := &persistent{k: k, n: 42}
	id, err := k.Create(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	p.self = id
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Checkpoint(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkActivation(b *testing.B) {
	k := New(Config{})
	defer k.Shutdown()
	k.RegisterType("test.Persistent", activatePersistent)
	p := &persistent{k: k, n: 7}
	id, err := k.Create(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	p.self = id
	if _, err := k.Checkpoint(id); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.Deactivate(id); err != nil {
			b.Fatal(err)
		}
		// The next invocation re-activates from stable storage.
		if _, err := k.Invoke(uid.Nil, id, "get", &pingReq{}); err != nil {
			b.Fatal(err)
		}
	}
}
