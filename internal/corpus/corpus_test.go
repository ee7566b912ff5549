package corpus

import (
	"archive/zip"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"o2"
)

const racySrc = `
class S { field data; }
class W {
  field s;
  W(s) { this.s = s; }
  run() { sh = this.s; sh.data = this; }
}
main {
  s = new S();
  t1 = new W(s);
  t2 = new W(s);
  t1.start();
  t2.start();
}
`

// drain exhausts an iterator, returning the sources in emission order.
func drain(t *testing.T, it Iterator) []o2.Source {
	t.Helper()
	defer it.Close()
	var out []o2.Source
	for {
		src, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, src)
	}
}

func names(srcs []o2.Source) []string {
	out := make([]string, len(srcs))
	for i, s := range srcs {
		out[i] = s.Name
	}
	return out
}

func TestDirDiscovery(t *testing.T) {
	root := t.TempDir()
	sub := filepath.Join(root, "nested")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{
		filepath.Join(root, "b.mini"),
		filepath.Join(root, "a.mini"),
		filepath.Join(sub, "c.mini"),
		filepath.Join(root, "ignored.txt"),
	} {
		if err := os.WriteFile(p, []byte(racySrc), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	it, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, it)
	want := []string{
		filepath.Join(root, "a.mini"),
		filepath.Join(root, "b.mini"),
		filepath.Join(sub, "c.mini"),
	}
	if strings.Join(names(got), ",") != strings.Join(want, ",") {
		t.Fatalf("dir discovery = %v, want %v", names(got), want)
	}
	if string(got[0].Bytes) != racySrc {
		t.Fatal("dir discovery did not read contents")
	}
}

func TestZipDiscovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.zip")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	zw := zip.NewWriter(f)
	for _, name := range []string{"z.mini", "a.mini", "skip.txt", "dir/m.mini"} {
		w, err := zw.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte(racySrc)); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	it, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got := names(drain(t, it))
	want := "a.mini,dir/m.mini,z.mini"
	if strings.Join(got, ",") != want {
		t.Fatalf("zip discovery = %v, want %s", got, want)
	}
}

func TestManifestDiscovery(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "disk.mini"), []byte(racySrc), 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := `{"name":"inline.mini","source":"main { x = 1; }"}

{"path":"disk.mini"}
{"source":"main { y = 2; }"}
`
	path := filepath.Join(dir, "corpus.ndjson")
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}

	it, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, it)
	want := []string{"inline.mini", "disk.mini", "manifest-4.mini"}
	if strings.Join(names(got), ",") != strings.Join(want, ",") {
		t.Fatalf("manifest discovery = %v, want %v", names(got), want)
	}
	if string(got[1].Bytes) != racySrc {
		t.Fatal("path entry did not read the referenced file")
	}
}

func TestManifestBadLine(t *testing.T) {
	it := Manifest(strings.NewReader("{\"source\":\"ok\"}\nnot json\n"), "")
	if _, ok, err := it.Next(); err != nil || !ok {
		t.Fatalf("first entry: ok=%v err=%v", ok, err)
	}
	_, _, err := it.Next()
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want a line-2 parse error", err)
	}
}

func TestInlineManifestRejectsPaths(t *testing.T) {
	it := InlineManifest(strings.NewReader(`{"path":"/etc/passwd"}` + "\n"))
	_, _, err := it.Next()
	if err == nil || !strings.Contains(err.Error(), "not allowed") {
		t.Fatalf("err = %v, want a path-rejection error", err)
	}
}

// TestInlineManifestRecordCap: a record line over the cap fails the
// stream with its line number; records before it are read, including one
// longer than the reader's buffer.
func TestInlineManifestRecordCap(t *testing.T) {
	defer func(n int) { maxRecordBytes = n }(maxRecordBytes)
	maxRecordBytes = 10000
	record := func(n int) string { return `{"source":"` + strings.Repeat("x", n) + `"}` }
	it := InlineManifest(strings.NewReader(record(1) + "\n\n" + record(6000) + "\n" + record(maxRecordBytes) + "\n" + record(1) + "\n"))
	for _, want := range []int{1, 6000} {
		src, more, err := it.Next()
		if err != nil || !more || len(src.Bytes) != want {
			t.Fatalf("entry of %d bytes: got %d bytes, more=%v, err=%v", want, len(src.Bytes), more, err)
		}
	}
	_, _, err := it.Next()
	if err == nil || !strings.Contains(err.Error(), "line 4") || !strings.Contains(err.Error(), "exceeds 10000 bytes") {
		t.Fatalf("err = %v, want a line-4 record-size error", err)
	}
}

func TestChain(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.mini"), filepath.Join(dir, "b.mini")
	for _, p := range []string{a, b} {
		if err := os.WriteFile(p, []byte(racySrc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := names(drain(t, Chain(Files(a), Files(b), Files(a))))
	want := a + "," + b + "," + a
	if strings.Join(got, ",") != want {
		t.Fatalf("chain = %v, want %s", got, want)
	}
}

// TestClassOf checks the exit class a record carries for each way one
// program's run can end.
func TestClassOf(t *testing.T) {
	clean, err := o2.AnalyzeSources(context.Background(),
		[]o2.Source{{Name: "clean.mini", Bytes: []byte("main { x = 1; }")}}, o2.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	racy, err := o2.AnalyzeSources(context.Background(),
		[]o2.Source{{Name: "racy.mini", Bytes: []byte(racySrc)}}, o2.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		res  *o2.Result
		err  error
		want o2.Outcome
	}{
		{clean, nil, o2.OutcomeOK},
		{racy, nil, o2.OutcomeRaces},
		{nil, o2.ErrCompile, o2.OutcomeParse},
		{nil, o2.ErrBudget, o2.OutcomeBudget},
		{nil, o2.ErrCanceled, o2.OutcomeCanceled},
		{nil, context.Canceled, o2.OutcomeCanceled},
		{nil, errors.New("boom"), o2.OutcomeInternal},
	}
	for _, c := range cases {
		rec := NewRecord(o2.CorpusResult{Name: "p.mini", Result: c.res, Err: c.err})
		if rec.ExitClass != c.want {
			t.Errorf("NewRecord(err=%v, races=%d).ExitClass = %s, want %s", c.err, rec.RaceCount, rec.ExitClass, c.want)
		}
	}
}

func TestNewRecordProjection(t *testing.T) {
	res, err := o2.AnalyzeSources(context.Background(),
		[]o2.Source{{Name: "racy.mini", Bytes: []byte(racySrc)}}, o2.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecord(o2.CorpusResult{Index: 7, Name: "racy.mini", Result: res})
	if rec.Schema != RecordSchema || rec.Index != 7 || rec.Program != "racy.mini" {
		t.Fatalf("record envelope = %+v", rec)
	}
	if rec.ExitClass != o2.OutcomeRaces || rec.RaceCount != 1 || len(rec.Races) != 1 {
		t.Fatalf("record races = %+v", rec)
	}
	r := rec.Races[0]
	if r.Location == "" || r.A.Op != "write" || r.B.Op != "write" || r.A.Origin == "" {
		t.Fatalf("race projection = %+v", r)
	}
	if rec.Stats == nil || rec.Stats.TotalNS <= 0 {
		t.Fatalf("record stats = %+v", rec.Stats)
	}

	erec := NewRecord(o2.CorpusResult{Index: 1, Name: "bad.mini", Err: o2.ErrCompile})
	if erec.ExitClass != o2.OutcomeParse || erec.Error == "" || erec.Stats != nil {
		t.Fatalf("error record = %+v", erec)
	}
}
