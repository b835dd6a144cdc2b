package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tnsr/internal/codefile"
)

// TestMainPEPOutOfRangeRejected runs the built command on a codefile whose
// main PEP names no procedure (checksums valid): it must exit with the
// corrupt-artifact code and the typed error, not a runtime panic.
func TestMainPEPOutOfRangeRejected(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "tnsrun")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	f := &codefile.File{Name: "pep7", Code: []uint16{0}, MainPEP: 7,
		Procs: []codefile.Proc{{Name: "main", Entry: 0}}}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "pep7.tns")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var stderr bytes.Buffer
	cmd := exec.Command(bin, path)
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 3 {
		t.Fatalf("exit %v, want code 3 (corrupt input); stderr:\n%s", err, stderr.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, "corrupt meta section") || !strings.Contains(msg, "main PEP 7") {
		t.Errorf("stderr does not carry the typed rejection:\n%s", msg)
	}
	if strings.Contains(msg, "panic") || strings.Contains(msg, "goroutine") {
		t.Errorf("stderr carries a stack trace:\n%s", msg)
	}
}
