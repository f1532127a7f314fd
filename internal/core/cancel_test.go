package core_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"smp/internal/core"
	"smp/internal/fig4"
)

// endlessReader produces keyword-free bytes forever and cancels the context
// after cancelAt bytes; only the window's chunk-boundary context check can
// end the run.
type endlessReader struct {
	produced int
	cancelAt int
	cancel   context.CancelFunc
}

func (r *endlessReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	r.produced += len(p)
	if r.produced >= r.cancelAt && r.cancel != nil {
		r.cancel()
		r.cancel = nil
	}
	return len(p), nil
}

// TestProjectContextCancelled checks the engine's chunk-boundary
// cancellation: a context cancelled mid-stream surfaces as ctx.Err() after
// at most one further chunk, and a pre-cancelled context returns before
// reading at all.
func TestProjectContextCancelled(t *testing.T) {
	p := newPrefilter(t, example2DTD, "/*, /a/b#", core.Options{ChunkSize: 1 << 10}, fig4.Options{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stats, err := p.Project(ctx, io.Discard, &endlessReader{cancelAt: 8 << 10, cancel: cancel})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.BytesRead > 16<<10 {
		t.Errorf("cancelled run read %d bytes: not stopped at a chunk boundary", stats.BytesRead)
	}

	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := p.Project(pre, io.Discard, strings.NewReader("<a></a>")); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}

	// The pooled engine is not poisoned: a fresh run still projects.
	var out bytes.Buffer
	if _, err := p.Project(context.Background(), &out, strings.NewReader(`<a><b>x</b></a>`)); err != nil {
		t.Fatalf("run after cancellation: %v", err)
	}
	if out.Len() == 0 {
		t.Error("no output after a cancelled run")
	}
}

// TestProjectWithChunkOverride checks that a per-run chunk size changes the
// read granularity without changing the projection.
func TestProjectWithChunkOverride(t *testing.T) {
	p := newPrefilter(t, example2DTD, "/*, //c#", core.Options{}, fig4.Options{})
	doc := `<a><b>x</b><c><b>y</b></c></a>`
	var want bytes.Buffer
	if _, err := p.Project(context.Background(), &want, strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 64, 128, 1 << 20} {
		var out bytes.Buffer
		if _, err := p.ProjectWith(context.Background(), &out, strings.NewReader(doc), fig4.RunOptions{ChunkSize: chunk}); err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if out.String() != want.String() {
			t.Errorf("chunk %d: projection %q differs from default %q", chunk, out.String(), want.String())
		}
	}
}
