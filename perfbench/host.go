package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// hostFacts stamps every result with where and on what it was measured.
type hostFacts struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	// SourceSHA256 identifies the measured code when the checkout is not
	// a git repository: sha256 over every .go file and go.mod of the
	// module, in path order.
	SourceSHA256 string `json:"source_sha256"`
	DataDirFS    string `json:"data_dir_fs"`
}

func gatherHost(root, dataDir string, o options) hostFacts {
	commit := os.Getenv("BENCH_GIT_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return hostFacts{
		Workload:     o.workload,
		Seed:         o.seed,
		Seconds:      o.seconds,
		Trace:        o.trace,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GitCommit:    commit,
		SourceSHA256: sourceDigest(root),
		DataDirFS:    fsType(dataDir),
	}
}

// sourceDigest hashes the module's Go sources under root, skipping hidden
// directories (build outputs live in one).
func sourceDigest(root string) string {
	var files []string
	// The callback never fails: an unreadable entry only shortens the
	// digest input, and the digest is informational.
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fsType names the filesystem holding dir: fsync cost depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x6969:     "nfs",
		0x2FC12FC1: "zfs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strings.ToUpper(hex.EncodeToString([]byte{byte(st.Type >> 24), byte(st.Type >> 16), byte(st.Type >> 8), byte(st.Type)}))
}

// rssSlices records the peak resident set of consecutive slices of the
// measured work. Linux lets a process reset its own peak (VmHWM) through
// /proc/self/clear_refs; where that fails the peaks are cumulative, the
// process-lifetime getrusage peak.
type rssSlices struct{ peaks []float64 }

// begin starts a slice.
func (r *rssSlices) begin() {
	// A failed reset leaves the peak cumulative; see the type comment.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// end closes a slice, recording its peak, and starts the next.
func (r *rssSlices) end() {
	r.peaks = append(r.peaks, peakRSSMiB())
	r.begin()
}

// until takes rssSlice-long slices until done yields, and returns what
// it yields.
func (r *rssSlices) until(done <-chan error) error {
	r.begin()
	t := time.NewTicker(rssSlice)
	defer t.Stop()
	for {
		select {
		case err := <-done:
			r.end()
			return err
		case <-t.C:
			r.end()
		}
	}
}

// median is the median slice peak.
func (r *rssSlices) median() float64 { return median(r.peaks) }

// peakRSSMiB is the resident-set peak since the last reset.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
