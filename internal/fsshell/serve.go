package fsshell

import (
	"fmt"
	"strings"

	"asymstream/internal/fsys"
	"asymstream/internal/transport"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
)

// Serving mode (edenfs -serve): a second OS process's shell can pull
// file contents out of this session's Eden file system over the
// bridge.  Each "file NAME" open reads the file through the ordinary
// pull protocol (§4) and streams its lines to the client.

// Opener returns the bridge OpenFunc this session honours when
// serving remote clients: "file NAME" streams a committed file's
// lines.
func (s *Session) Opener() transport.OpenFunc {
	return func(spec string) (transport.ItemSource, error) {
		word, rest, _ := strings.Cut(strings.TrimSpace(spec), " ")
		if word != "file" {
			return nil, fmt.Errorf("edenfs: unknown remote spec %q (try file NAME)", spec)
		}
		fileUID, err := s.resolve(strings.TrimSpace(rest))
		if err != nil {
			return nil, err
		}
		ref, err := fsys.Open(s.k, uid.Nil, fileUID, nil)
		if err != nil {
			return nil, err
		}
		data, err := fsys.ReadAll(s.k, uid.Nil, ref)
		_ = fsys.CloseStream(s.k, uid.Nil, ref)
		if err != nil {
			return nil, err
		}
		return &transport.SliceSource{Items: transput.SplitLines(data)}, nil
	}
}
