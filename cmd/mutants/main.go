// Command mutants measures what the test suite catches. It applies each
// source mutation of a JSON catalogue, one at a time, to a copy of the
// repository and runs the tests the entry names: a mutant the tests
// fail on is killed, one they pass on survived — a fault the suite
// masks, the suite's own SDC.
//
// Usage:
//
//	go run ./cmd/mutants [-catalogue cmd/mutants/catalogue.json] [-root .] [-only regexp]
//
// Each catalogue entry names a file, an exact string that must occur in
// it exactly once, its replacement, the packages to test and a -run
// pattern. The driver copies the root's tracked and untracked
// non-ignored files to a temporary directory, checks that the union of
// the entries' patterns passes there unmutated, then for each entry
// writes the mutated file, checks that the packages and their tests
// still compile (a compile failure is a broken entry, never a kill),
// runs `go test -p 1` on the entry's pattern and restores the file. An
// entry marked equivalent carries the reason no test can tell it from
// the original; it is expected to survive. The exit status is non-zero
// when an unmarked mutant survives, a marked one is killed, an entry is
// broken or the baseline fails.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"time"
)

// mutant is one catalogue entry.
type mutant struct {
	Name     string   `json:"name"`
	File     string   `json:"file"`
	Old      string   `json:"old"`
	New      string   `json:"new"`
	Packages []string `json:"packages"`
	Run      string   `json:"run"`
	// Equivalent, when set, says why no test can kill the mutant.
	Equivalent string `json:"equivalent,omitempty"`
}

func main() {
	catalogue := flag.String("catalogue", "cmd/mutants/catalogue.json", "mutant catalogue (JSON list of entries)")
	root := flag.String("root", ".", "repository to copy (a git work tree)")
	only := flag.String("only", "", "run only the entries whose name matches this regexp")
	flag.Parse()
	if err := run(*catalogue, *root, *only); err != nil {
		fmt.Fprintln(os.Stderr, "mutants:", err)
		os.Exit(1)
	}
}

func run(catalogue, root, only string) error {
	raw, err := os.ReadFile(catalogue)
	if err != nil {
		return err
	}
	var all []mutant
	if err := json.Unmarshal(raw, &all); err != nil {
		return fmt.Errorf("%s: %w", catalogue, err)
	}
	filter, err := regexp.Compile(only)
	if err != nil {
		return err
	}
	var ms []mutant
	for _, m := range all {
		if filter.MatchString(m.Name) {
			ms = append(ms, m)
		}
	}
	if len(ms) == 0 {
		return fmt.Errorf("no catalogue entry matches %q", only)
	}
	work, err := os.MkdirTemp("", "mutants-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	if err := copyTree(root, work); err != nil {
		return err
	}

	var pats, pkgs []string
	for _, m := range ms {
		pats = append(pats, m.Run)
		for _, p := range m.Packages {
			if !slices.Contains(pkgs, p) {
				pkgs = append(pkgs, p)
			}
		}
	}
	start := time.Now()
	if out, err := goTest(work, strings.Join(pats, "|"), pkgs); err != nil {
		return fmt.Errorf("unmutated baseline fails:\n%s", out)
	}
	fmt.Printf("baseline passes (%s)\n\n", time.Since(start).Round(time.Second))

	failed := false
	fmt.Printf("%-34s %-10s %6s  %s\n", "mutant", "result", "time", "detail")
	for _, m := range ms {
		t0 := time.Now()
		result, detail, err := try(work, m)
		if err != nil {
			return err
		}
		if result == "survived" && m.Equivalent != "" {
			result, detail = "equivalent", m.Equivalent
		} else if result != "killed" || m.Equivalent != "" {
			failed = true
		}
		fmt.Printf("%-34s %-10s %5.0fs  %s\n", m.Name, result, time.Since(t0).Seconds(), detail)
	}
	fmt.Printf("\ntotal %s\n", time.Since(start).Round(time.Second))
	if failed {
		return fmt.Errorf("a mutant survived unmarked, a marked one was killed, or an entry is broken")
	}
	return nil
}

// try applies one mutant in work, runs its tests and restores the file.
// It returns killed, survived or broken, and a detail: the failing
// tests, or why the entry is broken. An error means the copy could not
// be restored, so no later mutant can run on it.
func try(work string, m mutant) (result, detail string, err error) {
	path := filepath.Join(work, m.File)
	orig, err := os.ReadFile(path)
	if err != nil {
		return "broken", err.Error(), nil
	}
	if n := bytes.Count(orig, []byte(m.Old)); n != 1 {
		return "broken", fmt.Sprintf("old string occurs %d times in %s", n, m.File), nil
	}
	if err := os.WriteFile(path, bytes.Replace(orig, []byte(m.Old), []byte(m.New), 1), 0o644); err != nil {
		return "", "", err
	}
	result, detail = verdict(work, m)
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		return "", "", fmt.Errorf("restore %s: %w", m.File, err)
	}
	return result, detail, nil
}

// verdict compiles and runs the tests of a mutant already applied in
// work.
func verdict(work string, m mutant) (string, string) {
	if out, err := goTest(work, "^$", m.Packages); err != nil {
		return "broken", "does not compile: " + firstLine(out)
	}
	out, err := goTest(work, m.Run, m.Packages)
	if err == nil {
		return "survived", ""
	}
	var fails []string
	for _, line := range strings.Split(out, "\n") {
		if name, ok := strings.CutPrefix(line, "--- FAIL: "); ok && len(fails) < 3 {
			fails = append(fails, strings.Fields(name)[0])
		}
	}
	if len(fails) == 0 {
		return "killed", firstLine(out)
	}
	return "killed", strings.Join(fails, " ")
}

// goTest runs one go test process over pkgs in dir, one test binary at
// a time, and returns its combined output.
func goTest(dir, pattern string, pkgs []string) (string, error) {
	args := append([]string{"test", "-count=1", "-p", "1", "-vet=off", "-run", pattern}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// copyTree copies root's tracked and untracked non-ignored files, as
// they are in the work tree, into dst.
func copyTree(root, dst string) error {
	cmd := exec.Command("git", "ls-files", "-z", "--cached", "--others", "--exclude-standard")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("git ls-files in %s: %w", root, err)
	}
	for _, name := range strings.Split(strings.TrimRight(string(out), "\x00"), "\x00") {
		data, err := os.ReadFile(filepath.Join(root, name))
		if os.IsNotExist(err) {
			continue // deleted in the work tree
		}
		if err != nil {
			return err
		}
		target := filepath.Join(dst, name)
		if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(target, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(strings.TrimSpace(s), "\n")
	return line
}
