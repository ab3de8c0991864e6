package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunToStdout(t *testing.T) {
	for _, city := range []string{"boston", "nyc"} {
		var sb strings.Builder
		if err := run([]string{"-city", city, "-frames", "10", "-volume", "2880", "-seed", "1"}, &sb); err != nil {
			t.Fatalf("run -city %s: %v", city, err)
		}
		out := sb.String()
		if !strings.HasPrefix(out, "id,frame,pickup_x") {
			t.Errorf("%s: missing CSV header:\n%.200s", city, out)
		}
		if strings.Count(out, "\n") < 5 {
			t.Errorf("%s: suspiciously few rows:\n%s", city, out)
		}
	}
}

func TestRunToFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	var sb strings.Builder
	if err := run([]string{"-city", "newyork", "-frames", "5", "-o", path}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !strings.HasPrefix(string(data), "id,frame") {
		t.Error("file missing CSV header")
	}
	if !strings.Contains(sb.String(), "wrote") {
		t.Errorf("stdout = %q", sb.String())
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-city", "atlantis"}, &sb); err == nil {
		t.Error("accepted unknown city")
	}
	if err := run([]string{"-frames", "0"}, &sb); err == nil {
		t.Error("accepted zero frames")
	}
	if err := run([]string{"-o", "/no/such/dir/out.csv", "-frames", "5"}, &sb); err == nil {
		t.Error("accepted unwritable output path")
	}
}

func TestRunConvertTLC(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "tlc.csv")
	tlc := "tpep_pickup_datetime,pickup_longitude,pickup_latitude,dropoff_longitude,dropoff_latitude\n" +
		"2016-01-01 00:00:00,-74.0,40.70,-74.0,40.71\n" +
		"2016-01-01 00:02:00,-74.01,40.71,-74.0,40.72\n"
	if err := os.WriteFile(in, []byte(tlc), 0o600); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "trace.csv")
	var sb strings.Builder
	if err := run([]string{"-tlc", in, "-o", out}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "id,frame") {
		t.Error("converted file missing trace header")
	}
	if !strings.Contains(sb.String(), "converted 2 requests") {
		t.Errorf("stdout = %q", sb.String())
	}

	if err := run([]string{"-tlc", "/no/such/file"}, &sb); err == nil {
		t.Error("accepted missing TLC input")
	}
}
