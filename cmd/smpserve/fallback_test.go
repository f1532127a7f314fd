package main

import (
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smp/internal/mmapio"
)

// These tests pin down the degraded paths around internal/mmapio in the
// serving layer: documents that cannot be mapped — directories, dangling
// symlinks, zero-byte files, files truncated underfoot — must produce clean
// error responses (or clean empty projections), never a panic or partially
// served output.

func TestDocrootFallbacks(t *testing.T) {
	srv, ts := coalescingServer(t, 8)
	dir := t.TempDir()
	srv.docroot = dir

	get := func(doc string) (*http.Response, string) {
		t.Helper()
		resp, out := doProject(t, ts, "/*, //australia//name#", "doc="+url.QueryEscape(doc), "")
		return resp, string(out)
	}

	t.Run("directory", func(t *testing.T) {
		if err := os.Mkdir(filepath.Join(dir, "subdir"), 0o755); err != nil {
			t.Fatal(err)
		}
		resp, body := get("subdir")
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("directory doc= got status %d (%s), want 404", resp.StatusCode, body)
		}
	})

	t.Run("dangling symlink", func(t *testing.T) {
		link := filepath.Join(dir, "dangling.xml")
		if err := os.Symlink(filepath.Join(dir, "no-such-target"), link); err != nil {
			t.Skipf("symlinks unsupported here: %v", err)
		}
		resp, body := get("dangling.xml")
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("dangling symlink doc= got status %d (%s), want 404", resp.StatusCode, body)
		}
	})

	t.Run("symlink to regular file", func(t *testing.T) {
		target := filepath.Join(dir, "real.xml")
		if err := os.WriteFile(target, []byte(auctionDoc), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Symlink(target, filepath.Join(dir, "alias.xml")); err != nil {
			t.Skipf("symlinks unsupported here: %v", err)
		}
		resp, body := get("alias.xml")
		if resp.StatusCode != http.StatusOK || !strings.Contains(body, "<name>PDA</name>") {
			t.Errorf("symlinked doc= got status %d body %q, want the projection", resp.StatusCode, body)
		}
	})

	t.Run("zero-byte file", func(t *testing.T) {
		if err := os.WriteFile(filepath.Join(dir, "empty.xml"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		// mmapio refuses empty files (ErrNotMappable), so this exercises the
		// buffered/streaming fallback. Zero bytes is truncated-at-offset-0
		// input: the engine rejects it up front, and the server must turn
		// that into a clean 422 — not a panic, not a partial response.
		resp, body := get("empty.xml")
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("zero-byte doc= got status %d body %q, want a clean 422", resp.StatusCode, body)
		}
	})

	t.Run("truncated between requests", func(t *testing.T) {
		// Serve once, truncate the file, serve again: the second response
		// must reflect the truncated content — a clean 422 from the engine
		// rejecting the cut-off document — never stale pre-truncation bytes
		// from a cached mapping, and never a panic.
		path := filepath.Join(dir, "shrinking.xml")
		if err := os.WriteFile(path, []byte(auctionDoc), 0o644); err != nil {
			t.Fatal(err)
		}
		resp, body := get("shrinking.xml")
		if resp.StatusCode != http.StatusOK || !strings.Contains(body, "<name>PDA</name>") {
			t.Fatalf("pre-truncation doc= got status %d body %q", resp.StatusCode, body)
		}
		if err := os.Truncate(path, 6); err != nil { // "<site>"
			t.Fatal(err)
		}
		resp, body = get("shrinking.xml")
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("post-truncation doc= got status %d (%s), want a clean 422", resp.StatusCode, body)
		}
		if strings.Contains(body, "PDA") {
			t.Errorf("post-truncation response %q serves stale pre-truncation content", body)
		}
	})

	_ = srv // srv's docroot stays set for every subtest above
}

// TestDocCacheSpoolTruncation corrupts the spool file between spooling and
// mapping: the cache's post-map verification must reject the entry with a
// clean error instead of serving bytes that do not match the digest.
func TestDocCacheSpoolTruncation(t *testing.T) {
	dir := t.TempDir()
	dc := newDocCache(dir, 1<<20)
	data := []byte(strings.Repeat("x", 4096))
	hash := hashBytes(data)

	// The post-map verification compares the mapped bytes against the
	// entry's digest, so any corruption between write and map — truncation,
	// a concurrent overwrite — surfaces as a digest mismatch. Drive it
	// directly: spool under a key that does not match the content.
	if _, err := dc.spool(hashBytes([]byte("something else")), data); err == nil {
		t.Error("spool accepted content whose digest does not match its key")
	}

	// The honest path still works.
	e, err := dc.spool(hash, data)
	if err != nil {
		t.Fatalf("honest spool failed: %v", err)
	}
	if string(e.data) != string(data) {
		t.Error("spooled entry does not serve its bytes")
	}
	e.destroy()
}

// TestDocCacheZeroByteDocument stores an empty document: mmapio refuses to
// map empty files, so the entry must degrade to a heap copy and still serve.
func TestDocCacheZeroByteDocument(t *testing.T) {
	dc := newDocCache(t.TempDir(), 1<<20)
	hash := hashBytes(nil)
	e, err := dc.put(hash, nil)
	if err != nil {
		t.Fatalf("putting an empty document: %v", err)
	}
	if e.mapping != nil {
		t.Error("empty document claims a mapping; mmapio cannot map empty files")
	}
	if len(e.data) != 0 {
		t.Errorf("empty document serves %d bytes", len(e.data))
	}
	dc.release(e)
	got, ok := dc.get(hash)
	if !ok {
		t.Fatal("empty document not retrievable")
	}
	dc.release(got)
}

// TestHashFileFallbacks checks hashFile on inputs mmapio refuses: the
// digest must match the streaming reference and the file offset must be
// preserved for the subsequent projection.
func TestHashFileFallbacks(t *testing.T) {
	dir := t.TempDir()

	t.Run("empty file", func(t *testing.T) {
		path := filepath.Join(dir, "empty")
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := mmapio.Map(f); err == nil {
			t.Fatal("mmapio mapped an empty file; the fallback is untested")
		}
		hash, err := hashFile(f)
		if err != nil {
			t.Fatalf("hashFile on an empty file: %v", err)
		}
		if want := hashBytes(nil); hash != want {
			t.Errorf("hashFile = %s, want %s", hash, want)
		}
	})

	t.Run("offset preserved", func(t *testing.T) {
		path := filepath.Join(dir, "data")
		if err := os.WriteFile(path, []byte("hello world"), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		hash, err := hashFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if want := hashBytes([]byte("hello world")); hash != want {
			t.Errorf("hashFile = %s, want %s", hash, want)
		}
		// Whatever path hashFile took, the handle must still read from 0.
		buf := make([]byte, 5)
		if _, err := f.Read(buf); err != nil || string(buf) != "hello" {
			t.Errorf("file offset disturbed: read %q, %v", buf, err)
		}
	})
}
