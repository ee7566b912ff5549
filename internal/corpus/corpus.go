// Package corpus is the repository-scale input frontend: it discovers
// minilang programs from a directory tree, a zip archive or an NDJSON
// manifest and streams them as o2.Source values — one program at a time,
// never materializing the corpus — into the streaming analysis pipeline
// (o2.AnalyzeCorpus). It also owns the wire format of streamed results:
// the schema-versioned NDJSON Record that `o2 batch -stream` and the
// server's POST /batch emit, one line per program, in input order.
package corpus

import (
	"archive/zip"
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"o2"
)

// Ext is the minilang source extension discovery looks for.
const Ext = ".mini"

// Iterator is a closeable source stream. Every discovery constructor
// returns one; Close releases the underlying file handles (idempotent,
// and a no-op for purely in-memory iterators).
type Iterator interface {
	o2.SourceIter
	Close() error
}

// Open discovers sources at path by shape:
//
//   - a directory streams every *.mini file under it, sorted by path;
//   - a *.zip archive streams its *.mini entries, sorted by name;
//   - a *.ndjson / *.jsonl file streams manifest records (see Manifest);
//   - any other file is a single .mini source.
//
// Contents are always read lazily, one program per Next call.
func Open(path string) (Iterator, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	switch {
	case info.IsDir():
		return Dir(path)
	case strings.HasSuffix(path, ".zip"):
		return Zip(path)
	case strings.HasSuffix(path, ".ndjson"), strings.HasSuffix(path, ".jsonl"):
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		return ManifestCloser(f, filepath.Dir(path)), nil
	default:
		return Files(path), nil
	}
}

// Files streams the named files as sources, in argument order, reading
// each lazily.
func Files(paths ...string) Iterator { return &fileIter{paths: paths} }

type fileIter struct {
	paths []string
	i     int
}

func (it *fileIter) Next() (o2.Source, bool, error) {
	if it.i >= len(it.paths) {
		return o2.Source{}, false, nil
	}
	p := it.paths[it.i]
	it.i++
	b, err := os.ReadFile(p)
	if err != nil {
		return o2.Source{}, false, err
	}
	return o2.Source{Name: p, Bytes: b}, true, nil
}

func (it *fileIter) Close() error { return nil }

// Dir streams every *.mini file under root in sorted path order. The
// walk collects names up front (paths are cheap); file contents are read
// one program at a time.
func Dir(root string) (Iterator, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(p, Ext) {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return Files(paths...), nil
}

// Zip streams the archive's *.mini entries in sorted name order, opening
// one entry at a time.
func Zip(path string) (Iterator, error) {
	rc, err := zip.OpenReader(path)
	if err != nil {
		return nil, err
	}
	var entries []*zip.File
	for _, f := range rc.File {
		if strings.HasSuffix(f.Name, Ext) && !strings.HasSuffix(f.Name, "/") {
			entries = append(entries, f)
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return &zipIter{rc: rc, entries: entries}, nil
}

type zipIter struct {
	rc      *zip.ReadCloser
	entries []*zip.File
	i       int
}

func (it *zipIter) Next() (o2.Source, bool, error) {
	if it.i >= len(it.entries) {
		return o2.Source{}, false, nil
	}
	e := it.entries[it.i]
	it.i++
	f, err := e.Open()
	if err != nil {
		return o2.Source{}, false, fmt.Errorf("zip entry %s: %w", e.Name, err)
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	if err != nil {
		return o2.Source{}, false, fmt.Errorf("zip entry %s: %w", e.Name, err)
	}
	return o2.Source{Name: e.Name, Bytes: b}, true, nil
}

func (it *zipIter) Close() error {
	if it.rc == nil {
		return nil
	}
	err := it.rc.Close()
	it.rc = nil
	return err
}

// ManifestEntry is one line of an NDJSON corpus manifest: either inline
// source text or a path to read it from (resolved against the manifest's
// directory when relative). Name defaults to the path.
type ManifestEntry struct {
	Name   string `json:"name,omitempty"`
	Source string `json:"source,omitempty"`
	Path   string `json:"path,omitempty"`
}

// MaxRecordBytes caps a manifest line and the body of a served analysis
// request. It sits well above the largest body ./ci.sh smoke posts (32.5
// MB of JSON for a 2.5M-level nested program), which must still get its
// parse error.
const MaxRecordBytes = 64 << 20

// maxRecordBytes is the line cap manifests enforce: MaxRecordBytes, which
// tests lower.
var maxRecordBytes = MaxRecordBytes

// Manifest streams an NDJSON manifest from r: one JSON object per line
// (see ManifestEntry), blank lines ignored. dir anchors relative Path
// entries ("" = process working directory). The reader is consumed
// lazily, line by line, so manifests of any length stream in constant
// memory; a line over MaxRecordBytes fails the stream.
func Manifest(r io.Reader, dir string) Iterator {
	return &manifestIter{br: bufio.NewReader(r), dir: dir}
}

// ManifestCloser is Manifest over a ReadCloser, closing it with the
// iterator.
func ManifestCloser(rc io.ReadCloser, dir string) Iterator {
	return &manifestIter{br: bufio.NewReader(rc), dir: dir, c: rc}
}

// InlineManifest is Manifest restricted to inline source entries: path
// entries are rejected. It is the form network frontends consume (the
// server's POST /batch), so a remote manifest can never read files off
// the serving host.
func InlineManifest(r io.Reader) Iterator {
	return &manifestIter{br: bufio.NewReader(r), inline: true}
}

type manifestIter struct {
	br     *bufio.Reader
	dir    string
	c      io.Closer
	line   int
	inline bool
}

func (it *manifestIter) Next() (o2.Source, bool, error) {
	for {
		it.line++
		line, err := it.readLine()
		if err != nil && err != io.EOF {
			return o2.Source{}, false, fmt.Errorf("manifest line %d: %w", it.line, err)
		}
		eof := err == io.EOF
		trimmed := strings.TrimSpace(line)
		if trimmed != "" {
			src, perr := it.parse(trimmed)
			if perr != nil {
				return o2.Source{}, false, fmt.Errorf("manifest line %d: %w", it.line, perr)
			}
			return src, true, nil
		}
		if eof {
			return o2.Source{}, false, nil
		}
	}
}

// readLine returns the next line with its newline, like ReadString, but
// fails once the line holds more than maxRecordBytes bytes before it.
func (it *manifestIter) readLine() (string, error) {
	var head []byte // the line's fragments before frag, if it outgrew the buffer
	for {
		frag, err := it.br.ReadSlice('\n')
		if len(head)+len(bytes.TrimSuffix(frag, []byte("\n"))) > maxRecordBytes {
			return "", fmt.Errorf("record exceeds %d bytes", maxRecordBytes)
		}
		if err != bufio.ErrBufferFull {
			if head == nil {
				return string(frag), err
			}
			return string(append(head, frag...)), err
		}
		head = append(head, frag...)
	}
}

func (it *manifestIter) parse(line string) (o2.Source, error) {
	var e ManifestEntry
	if err := json.Unmarshal([]byte(line), &e); err != nil {
		return o2.Source{}, err
	}
	switch {
	case e.Source != "":
		name := e.Name
		if name == "" {
			name = fmt.Sprintf("manifest-%d%s", it.line, Ext)
		}
		return o2.Source{Name: name, Bytes: []byte(e.Source)}, nil
	case e.Path != "":
		if it.inline {
			return o2.Source{}, fmt.Errorf("path entry %q not allowed here (inline sources only)", e.Path)
		}
		p := e.Path
		if !filepath.IsAbs(p) && it.dir != "" {
			p = filepath.Join(it.dir, p)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return o2.Source{}, err
		}
		name := e.Name
		if name == "" {
			name = e.Path
		}
		return o2.Source{Name: name, Bytes: b}, nil
	}
	return o2.Source{}, fmt.Errorf("entry has neither source nor path")
}

func (it *manifestIter) Close() error {
	if it.c == nil {
		return nil
	}
	err := it.c.Close()
	it.c = nil
	return err
}

// Chain concatenates iterators into one stream (the multi-argument CLI
// case: `o2 batch dir1 corpus.zip prog.mini`). Close closes every part.
func Chain(parts ...Iterator) Iterator { return &chainIter{parts: parts} }

type chainIter struct {
	parts []Iterator
	i     int
}

func (it *chainIter) Next() (o2.Source, bool, error) {
	for it.i < len(it.parts) {
		src, ok, err := it.parts[it.i].Next()
		if err != nil || ok {
			return src, ok, err
		}
		it.i++
	}
	return o2.Source{}, false, nil
}

func (it *chainIter) Close() error {
	var first error
	for _, p := range it.parts {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
