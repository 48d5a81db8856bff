package shell

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"asymstream/internal/transport"
	"asymstream/internal/transput"
)

// Remote streams: `remote unix:/tmp/eden.sock count 100 | upcase | print`
// pulls a stream out of another OS process's kernel through an InPort
// on a bridge proxy, then runs the rest of the pipeline locally.  The
// serving side is `edensh -serve unix:/tmp/eden.sock` (or edenfs),
// which honours the same source words through Opener.

// peer returns a cached bridge connection to addr, dialing on first
// use.  Connections stay open for the session (remote streams
// multiplex on them) and close with it.
func (s *Session) peer(addr string) (*transport.Peer, error) {
	if p, ok := s.peers[addr]; ok {
		return p, nil
	}
	p, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	if s.peers == nil {
		s.peers = make(map[string]*transport.Peer)
	}
	s.peers[addr] = p
	return p, nil
}

// remoteSource builds the SourceFunc for a `remote ADDR spec...` stage.
func (s *Session) remoteSource(st stageSpec) (transput.SourceFunc, error) {
	if len(st.args) < 2 {
		return nil, fmt.Errorf("shell: remote needs an address and a stream spec (remote unix:/tmp/eden.sock count 100)")
	}
	addr := st.args[0].text
	parts := make([]string, len(st.args)-1)
	for i, a := range st.args[1:] {
		parts[i] = a.text
	}
	spec := strings.Join(parts, " ")
	return func(out transput.ItemWriter) error {
		p, err := s.peer(addr)
		if err != nil {
			return err
		}
		in, err := transport.OpenStream(s.K, p, spec)
		if err != nil {
			return err
		}
		defer transport.CloseStream(s.K, in)
		for {
			item, err := in.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if err := transput.PutOwned(out, item); err != nil {
				return err
			}
		}
	}, nil
}

// countStream yields "0\n".."N-1\n" without materialising the run.
type countStream struct{ i, n int }

func (c *countStream) Next() ([]byte, error) {
	if c.i >= c.n {
		return nil, io.EOF
	}
	it := []byte(fmt.Sprintf("%d\n", c.i))
	c.i++
	return it, nil
}

func (c *countStream) Close() error { return nil }

// Opener returns the bridge OpenFunc this session honours when serving
// remote clients (edensh -serve): the same source words a local
// pipeline accepts — "count N", "text ...", "file /path".
func (s *Session) Opener() transport.OpenFunc {
	return func(spec string) (transport.ItemSource, error) {
		word, rest, _ := strings.Cut(strings.TrimSpace(spec), " ")
		switch word {
		case "count":
			n, err := strconv.Atoi(strings.TrimSpace(rest))
			if err != nil {
				return nil, fmt.Errorf("shell: remote count %q: %w", rest, err)
			}
			return &countStream{n: n}, nil
		case "text", "lines":
			return &transport.SliceSource{Items: transput.SplitLines([]byte(rest))}, nil
		case "file":
			data, err := s.UFS.Host().ReadFile(strings.TrimSpace(rest))
			if err != nil {
				return nil, err
			}
			return &transport.SliceSource{Items: transput.SplitLines(data)}, nil
		default:
			return nil, fmt.Errorf("shell: unknown remote spec %q (try count, text, file)", spec)
		}
	}
}
