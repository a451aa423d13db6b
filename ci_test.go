package apf_test

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestCIWorkflowMatchesMakeCI holds the Makefile to its own header: the
// prerequisites of `make ci` and the `run: make <target>` steps of the CI
// workflow are the same set, each target in exactly one workflow job — so a
// gate cannot be added to one list and silently never run in the other.
func TestCIWorkflowMatchesMakeCI(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	ciRule := regexp.MustCompile(`(?m)^ci:(.*)$`).FindSubmatch(mk)
	if ciRule == nil {
		t.Fatal("Makefile has no ci: rule")
	}
	local := strings.Fields(string(ciRule[1]))

	wf, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var remote []string
	for _, step := range regexp.MustCompile(`(?m)^\s*- run: make (.+)$`).FindAllSubmatch(wf, -1) {
		remote = append(remote, strings.Fields(string(step[1]))...)
	}

	sort.Strings(local)
	sort.Strings(remote)
	if strings.Join(local, " ") != strings.Join(remote, " ") {
		t.Errorf("`make ci` and the CI workflow run different targets:\n  make ci:  %v\n  workflow: %v", local, remote)
	}
}
