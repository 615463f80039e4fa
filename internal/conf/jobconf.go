package conf

import (
	"path"
	"strings"
)

// Well-known configuration keys. Names follow Hadoop 0.22 conventions where
// one exists; M3R-specific extensions live under the "m3r." prefix exactly
// as the paper describes communicating extra information "by adding settings
// to the job configuration" (§4.2.3).
const (
	KeyJobName           = "mapred.job.name"
	KeyNumReducers       = "mapred.reduce.tasks"
	KeyMapperClass       = "mapred.mapper.class"
	KeyReducerClass      = "mapred.reducer.class"
	KeyCombinerClass     = "mapred.combiner.class"
	KeyMapRunnerClass    = "mapred.map.runner.class"
	KeyPartitionerClass  = "mapred.partitioner.class"
	KeyInputFormatClass  = "mapred.input.format.class"
	KeyOutputFormatClass = "mapred.output.format.class"

	// New-style API component keys (org.apache.hadoop.mapreduce.*). A job
	// sets either the mapred or the mapreduce key for each role; engines
	// accept any combination of old and new components (§5.3).
	KeyNewMapperClass   = "mapreduce.map.class"
	KeyNewReducerClass  = "mapreduce.reduce.class"
	KeyNewCombinerClass = "mapreduce.combine.class"

	KeyInputPaths              = "mapred.input.dir"
	KeyOutputPath              = "mapred.output.dir"
	KeyMapOutputKeyClass       = "mapred.mapoutput.key.class"
	KeyMapOutputValueClass     = "mapred.mapoutput.value.class"
	KeyOutputKeyClass          = "mapred.output.key.class"
	KeyOutputValueClass        = "mapred.output.value.class"
	KeySortComparatorClass     = "mapred.output.key.comparator.class"
	KeyGroupingComparatorClass = "mapred.output.value.groupfn.class"

	KeyNumMapTasks           = "mapred.map.tasks" // hint, as in Hadoop
	KeySortMB                = "io.sort.mb"
	KeySortBytes             = "io.sort.bytes" // byte-granularity override of io.sort.mb (tests force spills with it)
	KeyMaxMapAttempts        = "mapred.map.max.attempts"
	KeyMaxReduceAttempts     = "mapred.reduce.max.attempts"
	KeyFSInstance            = "fs.instance.id" // which registered FileSystem to use
	KeyJobEndNotificationURL = "job.end.notification.url"
	KeyJobQueueName          = "mapred.job.queue.name"
	KeyDistributedCacheFiles = "mapred.cache.files"
	// KeyDistributedCacheLocalFiles is set by the engine for tasks: the
	// localized paths of KeyDistributedCacheFiles, as Hadoop exposes them.
	KeyDistributedCacheLocalFiles = "mapred.cache.localFiles"

	// M3R extensions (§4).
	KeyTempPrefix  = "m3r.temp.output.prefix" // default "temp"
	KeyTempPaths   = "m3r.temp.output.paths"  // explicit list alternative
	KeyForceHadoop = "m3r.job.force.hadoop"   // submit this job to Hadoop even under M3R
	KeyM3RDedup    = "m3r.shuffle.dedup"      // default true
	KeyM3RCache    = "m3r.cache.enabled"      // default true
	// KeyM3RCacheOnly marks an output-cache attribute set (§4.2): a path
	// written with it skips the backing filesystem and lives only in the
	// in-memory cache.
	KeyM3RCacheOnly = "m3r.cacheonly"
	// The tuning knobs below are tabulated — scope, default, what each
	// selects — in DESIGN.md ("Knobs"); defaults for any of them can come
	// from DefaultsEnv.
	//
	// KeyM3RShuffleBudget is the job's per-place cap on resident shuffle
	// bytes within the engine pool; runs beyond it spill. An explicit value
	// <= 0 opts the job out of accounting.
	KeyM3RShuffleBudget = "m3r.shuffle.budget.bytes"
	// KeyM3REngineShuffleBudget limits the engine-scoped per-place shuffle
	// pool every job of the sequence shares (m3r.Options.ShuffleBudgetBytes);
	// unset, the pool has no limit. Engine-lifetime: setting it on a
	// submitted job has no effect.
	KeyM3REngineShuffleBudget = "m3r.engine.shuffle.budget.bytes"
	// KeyM3RCacheBudget is the engine-scoped per-place byte ceiling of the
	// inter-job cache (m3r.Options.CacheBudgetBytes); cold entries spill
	// largest-first and readmit on access. Engine-lifetime, like the pool.
	KeyM3RCacheBudget = "m3r.cache.budget.bytes"
	// KeyM3RTaskPlace carries the executing task's place number in the
	// task-scoped job conf both engines hand to mappers/reducers, so
	// place-aware output plumbing (MultipleOutputs side files through the
	// cache) can home blocks at the writing task's place. Set by the
	// engines per task; setting it on a submitted job has no effect.
	KeyM3RTaskPlace = "m3r.task.place"
	// KeyTaskPartition is Hadoop's mapred.task.partition: the task's index
	// within its phase (map task index or reduce partition), set by both
	// engines in the task-scoped conf. Library code uses it to build
	// per-task file names (MultipleOutputs' "name-r-00002" suffixes).
	KeyTaskPartition = "mapred.task.partition"
	// KeyM3RSpillQueue is inert: the async spill queue it sized is gone and
	// no engine reads it. Declared only because benchmark/ still sets it.
	KeyM3RSpillQueue = "m3r.shuffle.spill.queue"
	// KeyM3RSpillCodec selects the block compression of spilled runs and
	// map-side sort spills in both engines: "none" (default) or "flate".
	// Readers sniff the layout per segment, so only writers consult it.
	KeyM3RSpillCodec = "m3r.shuffle.compress.codec"
	// KeyJobDeadlineMS bounds a job's wall-clock time in milliseconds on
	// either engine; expiry fails it with engine.ErrDeadlineExceeded.
	KeyJobDeadlineMS = "m3r.job.deadline.ms"
	// KeyM3RFailover, when true, makes the M3R engine roll back a failed
	// (not killed) job and resubmit it to its fallback engine (§5.3).
	KeyM3RFailover = "m3r.job.failover"
)

// DefaultTempPrefix is the output-basename prefix that marks a path as
// temporary (not written to the backing filesystem) under M3R (§4.2.3).
const DefaultTempPrefix = "temp"

// JobConf is a Configuration with job-shaped accessors. The zero value is
// not usable; construct with NewJob.
type JobConf struct {
	*Configuration
}

// NewJob returns an empty JobConf.
func NewJob() *JobConf {
	return &JobConf{Configuration: New()}
}

// WrapJob adapts an existing Configuration into a JobConf view.
func WrapJob(c *Configuration) *JobConf { return &JobConf{Configuration: c} }

// CloneJob returns a deep copy of the JobConf.
func (j *JobConf) CloneJob() *JobConf { return new(JobClone).Of(j) }

// JobClone is a JobConf and its Configuration in one value, so that a clone
// costs one allocation — or none of its own, inside a larger value its owner
// allocates anyway (a task attempt's context).
type JobClone struct {
	job JobConf
	c   Configuration
}

// Of makes o a clone of j, as CloneJob does, and returns it. o must be
// zero.
func (o *JobClone) Of(j *JobConf) *JobConf {
	o.c.frozen = j.freeze()
	o.job.Configuration = &o.c
	return &o.job
}

// CloneJobWith is CloneJob, then SetDefaults(defaults) (nil: none), then
// Set of each key/value pair of kv, in one step: the copy's properties are
// one fresh map, which its clones share. Written one after the other, the
// writes would be folded into a second map at the copy's first clone — a
// job's conf at submission, cloned by each of its task attempts. j is not
// written to.
func (j *JobConf) CloneJobWith(defaults *Configuration, kv ...string) *JobConf {
	j.mu.RLock()
	m := j.union()
	j.mu.RUnlock()
	if defaults != nil {
		defaults.mu.RLock()
		setUnset := func(k, v string) {
			if _, ok := m[k]; !ok {
				m[k] = v
			}
		}
		defaults.eachOwn(setUnset)
		for k, v := range defaults.frozen {
			setUnset(k, v)
		}
		defaults.mu.RUnlock()
	}
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	o := new(JobClone)
	o.c.frozen = m
	o.job.Configuration = &o.c
	return &o.job
}

// SetJobName names the job for reports.
func (j *JobConf) SetJobName(name string) { j.Set(KeyJobName, name) }

// JobName returns the job's display name.
func (j *JobConf) JobName() string { return j.GetDefault(KeyJobName, "(unnamed)") }

// SetNumReduceTasks sets the number of reducers (0 = map-only job).
func (j *JobConf) SetNumReduceTasks(n int) { j.SetInt(KeyNumReducers, n) }

// NumReduceTasks returns the configured reducer count (default 1).
func (j *JobConf) NumReduceTasks() int { return j.GetInt(KeyNumReducers, 1) }

// SetMapperClass sets the old-style mapper by registered name.
func (j *JobConf) SetMapperClass(name string) { j.Set(KeyMapperClass, name) }

// SetReducerClass sets the old-style reducer by registered name.
func (j *JobConf) SetReducerClass(name string) { j.Set(KeyReducerClass, name) }

// SetCombinerClass sets the old-style combiner by registered name.
func (j *JobConf) SetCombinerClass(name string) { j.Set(KeyCombinerClass, name) }

// SetPartitionerClass sets the partitioner by registered name.
func (j *JobConf) SetPartitionerClass(name string) { j.Set(KeyPartitionerClass, name) }

// SetMapRunnerClass sets a custom MapRunnable by registered name.
func (j *JobConf) SetMapRunnerClass(name string) { j.Set(KeyMapRunnerClass, name) }

// SetInputFormatClass sets the input format by registered name.
func (j *JobConf) SetInputFormatClass(name string) { j.Set(KeyInputFormatClass, name) }

// SetOutputFormatClass sets the output format by registered name.
func (j *JobConf) SetOutputFormatClass(name string) { j.Set(KeyOutputFormatClass, name) }

// AddInputPath appends an input path.
func (j *JobConf) AddInputPath(p string) {
	cur := j.Get(KeyInputPaths)
	if cur == "" {
		j.Set(KeyInputPaths, p)
		return
	}
	j.Set(KeyInputPaths, cur+","+p)
}

// InputPaths returns the configured input paths.
func (j *JobConf) InputPaths() []string { return j.GetStrings(KeyInputPaths) }

// SetOutputPath sets the job output directory.
func (j *JobConf) SetOutputPath(p string) { j.Set(KeyOutputPath, p) }

// OutputPath returns the job output directory.
func (j *JobConf) OutputPath() string { return j.Get(KeyOutputPath) }

// SetMapOutputKeyClass declares the map-output key type by registered name.
func (j *JobConf) SetMapOutputKeyClass(name string) { j.Set(KeyMapOutputKeyClass, name) }

// SetMapOutputValueClass declares the map-output value type.
func (j *JobConf) SetMapOutputValueClass(name string) { j.Set(KeyMapOutputValueClass, name) }

// SetOutputKeyClass declares the job-output key type by registered name.
func (j *JobConf) SetOutputKeyClass(name string) { j.Set(KeyOutputKeyClass, name) }

// SetOutputValueClass declares the job-output value type.
func (j *JobConf) SetOutputValueClass(name string) { j.Set(KeyOutputValueClass, name) }

// MapOutputKeyClass returns the map-output key type name, falling back to
// the job-output key class as Hadoop does.
func (j *JobConf) MapOutputKeyClass() string {
	if v := j.Get(KeyMapOutputKeyClass); v != "" {
		return v
	}
	return j.Get(KeyOutputKeyClass)
}

// MapOutputValueClass returns the map-output value type name, falling back
// to the job-output value class.
func (j *JobConf) MapOutputValueClass() string {
	if v := j.Get(KeyMapOutputValueClass); v != "" {
		return v
	}
	return j.Get(KeyOutputValueClass)
}

// IsTemporaryOutput reports whether path is a temporary output for M3R: its
// base name starts with the configured prefix, or it appears in the explicit
// temporary-paths list (§4.2.3). Both sides are compared cleaned, so
// "/data/temp_x/" and "/data/temp_x/." are the temporary "/data/temp_x".
func (j *JobConf) IsTemporaryOutput(p string) bool {
	p = path.Clean(p)
	for _, t := range j.GetStrings(KeyTempPaths) {
		if path.Clean(t) == p {
			return true
		}
	}
	prefix := j.GetDefault(KeyTempPrefix, DefaultTempPrefix)
	return prefix != "" && strings.HasPrefix(path.Base(p), prefix)
}
