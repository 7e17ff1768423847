package apps

import (
	"encoding/binary"
	"errors"
	"fmt"

	"wavnet/internal/ipstack"
	"wavnet/internal/netsim"
	"wavnet/internal/sim"
)

// The paper's §II.D names "FTP/SCP services" among the bandwidth- and
// latency-sensitive workloads a virtual cluster runs. FileServer/Fetch
// is that workload: a catalogue of named synthetic files served over
// one TCP connection per transfer, with an scp-style throughput report.

// FileServer serves a catalogue of named synthetic files.
type FileServer struct {
	files map[string]int64

	// Stats.
	Transfers uint64
	BytesOut  uint64
	Misses    uint64
}

// StartFileServer serves the given catalogue (name -> size in bytes) on
// st:port. The wire protocol is one request line "GET <name>\n",
// answered by an 8-byte big-endian length (max-uint64 for a miss)
// followed by the bytes.
func StartFileServer(st *ipstack.Stack, port uint16, catalogue map[string]int64) (*FileServer, error) {
	for name, size := range catalogue {
		if size < 0 {
			return nil, fmt.Errorf("apps: file %q has negative size", name)
		}
	}
	fs := &FileServer{files: make(map[string]int64, len(catalogue))}
	for name, size := range catalogue {
		fs.files[name] = size
	}
	lis, err := st.Listen(port)
	if err != nil {
		return nil, err
	}
	eng := st.Engine()
	eng.Spawn("file-accept", func(p *sim.Proc) {
		for {
			conn, err := lis.Accept(p)
			if err != nil {
				return
			}
			eng.Spawn("file-conn", func(cp *sim.Proc) {
				defer conn.Close()
				fs.serve(cp, conn)
			})
		}
	})
	return fs, nil
}

const fileMiss = ^uint64(0)

func (fs *FileServer) serve(p *sim.Proc, conn *ipstack.Conn) {
	req, err := readLine(p, conn)
	if err != nil {
		return
	}
	var name string
	if n, _ := fmt.Sscanf(req, "GET %s", &name); n != 1 {
		return
	}
	size, ok := fs.files[name]
	var hdr [8]byte
	if !ok {
		fs.Misses++
		binary.BigEndian.PutUint64(hdr[:], fileMiss)
		conn.Write(p, hdr[:])
		return
	}
	binary.BigEndian.PutUint64(hdr[:], uint64(size))
	if _, err := conn.Write(p, hdr[:]); err != nil {
		return
	}
	chunk := make([]byte, 32<<10)
	for sent := int64(0); sent < size; {
		n := size - sent
		if n > int64(len(chunk)) {
			n = int64(len(chunk))
		}
		if _, err := conn.Write(p, chunk[:n]); err != nil {
			return
		}
		sent += n
	}
	fs.Transfers++
	fs.BytesOut += uint64(size)
}

// FetchResult is one completed file transfer, as scp would report it.
type FetchResult struct {
	Name    string
	Bytes   int64
	Elapsed sim.Duration
}

// ErrNoSuchFile is returned by Fetch for a name the server lacks.
var ErrNoSuchFile = errors.New("apps: no such file")

// Fetch retrieves one file from a FileServer, blocking the process until
// the last byte arrives.
func Fetch(p *sim.Proc, st *ipstack.Stack, server netsim.Addr, name string) (*FetchResult, error) {
	start := p.Now()
	conn, err := st.Dial(p, server)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if _, err := conn.Write(p, []byte("GET "+name+"\n")); err != nil {
		return nil, err
	}
	var hdr [8]byte
	if _, err := conn.ReadFull(p, hdr[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint64(hdr[:])
	if size == fileMiss {
		return nil, ErrNoSuchFile
	}
	buf := make([]byte, 32<<10)
	var got int64
	for got < int64(size) {
		n, err := conn.Read(p, buf)
		got += int64(n)
		if err != nil {
			if got >= int64(size) {
				break
			}
			return nil, fmt.Errorf("apps: fetch %q: %w after %d/%d bytes", name, err, got, size)
		}
	}
	return &FetchResult{Name: name, Bytes: got, Elapsed: p.Now().Sub(start)}, nil
}
