// Fixture corpus for keycheck: conf-key and counter-name literals.
package keycheck

import (
	"os"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/sim"
)

// KeyFixtureLocal is a canonical declaration: a Key*-named constant may
// carry a key-shaped literal.
const KeyFixtureLocal = "mapred.fixture.local.knob"

// FixtureClassName mirrors types.PairName: a registered class name, not a
// conf key, allowed by the *Name declaration rule.
const FixtureClassName = "m3r.io.FixtureWritable"

// duplicatesCanonical rewrites a canonical key as a literal.
func duplicatesCanonical(job *conf.JobConf) {
	job.SetInt("io.sort.mb", 1) // want `conf key literal "io.sort.mb" duplicates conf.KeySortMB`
}

// typoKey misspells a canonical key: the knob would silently read its
// default.
func typoKey(job *conf.JobConf) string {
	return job.Get("m3r.shufle.budget.bytes") // want `"m3r.shufle.budget.bytes" looks like a conf key but no canonical Key constant defines it`
}

// bakedPrefix hides a key shape inside a format string.
const bakedPrefix = "mapred.fixture.%s.suffix" // want `"mapred.fixture.%s.suffix" looks like a conf key`

// usesConstants is the clean path.
func usesConstants(job *conf.JobConf) {
	job.SetInt(conf.KeySortMB, 1)
	job.Set(KeyFixtureLocal, "x")
}

// counterLiteralName rewrites a canonical counter name under a canonical
// group.
func counterLiteralName(cs *counters.Counters) {
	cs.Incr(counters.JobGroup, "TOTAL_LAUNCHED_MAPS", 1) // want `counter name literal "TOTAL_LAUNCHED_MAPS" duplicates counters.TotalLaunchedMaps`
}

// counterGroupLiteral rewrites the group itself; the unknown name under it
// is flagged too.
func counterGroupLiteral(cs *counters.Counters) {
	cs.Incr("org.apache.hadoop.mapred.JobInProgress$Counter", "NOT_A_REAL_COUNTER", 1) // want `group literal .* duplicates counters.JobGroup` `unknown counter name "NOT_A_REAL_COUNTER"`
}

// customGroup keeps free-form user counters: group is not canonical, so
// the name literal passes.
func customGroup(cs *counters.Counters) {
	cs.Incr("my-app-group", "records_seen", 1)
}

// fixtureCodecEnv hides the variable's name behind a constant; the rule
// follows the value, not the spelling of the call.
const fixtureCodecEnv = "M3R_FIXTURE_CODEC"

// perKnobEnv gives a conf key a second name in the environment.
func perKnobEnv() string {
	if v, ok := os.LookupEnv("M3R_FIXTURE_BUDGET_BYTES"); ok { // want `environment variable "M3R_FIXTURE_BUDGET_BYTES" read outside internal/conf`
		return v
	}
	return os.Getenv(fixtureCodecEnv) // want `environment variable "M3R_FIXTURE_CODEC" read outside internal/conf`
}

// otherEnv reads a variable that is not the module's: untouched.
func otherEnv() string {
	return os.Getenv("HOME")
}

// mirroredStat counts an event a second time: the task envelope already
// feeds cloned.pairs from the task's CLONED_PAIRS. A statistic with no task
// counter behind it is anyone's to add.
func mirroredStat(stats *sim.Stats, n int64) {
	stats.Add(sim.ClonedPairs, n) // want `statistic "cloned.pairs" is fed from the task counter CLONED_PAIRS by the task envelope`
	stats.Add(sim.RemoteTransfers, 1)
}

// ignoredLiteral is a deliberate violation under the escape hatch.
func ignoredLiteral(job *conf.JobConf) {
	//lint:ignore keycheck fixture exercising the suppression path
	job.SetInt("io.sort.mb", 2)
}
