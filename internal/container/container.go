// Package container is the Docker substitute: it runs side-task processes in
// named containers that bundle a simulated process with its GPU context and
// an MPS memory limit, and it guarantees the isolation property FreeRide
// relies on (paper §4.6, §8): when the containerized process dies — normally,
// by SIGKILL from the framework-enforced limit, or by an OOM from the MPS
// memory cap — its GPU context is destroyed with it, aborting in-flight
// kernels and releasing all device memory, while every other tenant of the
// GPU is untouched.
package container

import (
	"errors"
	"fmt"

	"freeride/internal/simgpu"
	"freeride/internal/simproc"
)

// Errors returned by the runtime.
var (
	ErrNotFound  = errors.New("container: not found")
	ErrDuplicate = errors.New("container: duplicate name")
)

// Spec describes a container to run.
type Spec struct {
	// Name must be unique within the runtime.
	Name string
	// Device is the GPU the container gets access to; nil for CPU-only.
	Device *simgpu.Device
	// GPUMemLimit is the MPS memory cap for the container's GPU client;
	// 0 means unlimited.
	GPUMemLimit int64
}

// Body is the containerized program. It receives the process handle and the
// container's GPU client (nil when Spec.Device was nil).
type Body func(p *simproc.Process, gpu *simgpu.Client) error

// Container is one running (or finished) container.
type Container struct {
	name string
	proc *simproc.Process
	gpu  *simgpu.Client

	exited  bool
	exitErr error
}

// Runtime creates and names containers over one process runtime.
type Runtime struct {
	procs      *simproc.Runtime
	containers map[string]*Container
}

// NewRuntime returns a container runtime.
func NewRuntime(procs *simproc.Runtime) *Runtime {
	return &Runtime{procs: procs, containers: make(map[string]*Container)}
}

// Run creates and starts a container whose body is a goroutine process — a
// coroutine of the dispatcher, so the engine keeps its one owner. The body begins executing at the current engine time.
func (rt *Runtime) Run(spec Spec, body Body) (*Container, error) {
	c, gpu, err := rt.create(spec)
	if err != nil {
		return nil, err
	}
	c.proc = rt.procs.Spawn("ctr/"+spec.Name, func(p *simproc.Process) error {
		return body(p, gpu)
	})
	rt.watch(c, gpu)
	return c, nil
}

// InlineBody is a containerized event-loop program: start receives the
// inline process and the container's GPU client and sets up its
// continuation machine (see simproc.SpawnInline).
type InlineBody func(p *simproc.Process, gpu *simgpu.Client)

// RunInline creates and starts a container whose body runs as an event-loop
// process on the engine goroutine — no process goroutine, no park/resume
// handshakes. Isolation semantics are identical to Run's: when the process
// exits or is killed, its GPU context is destroyed with it.
func (rt *Runtime) RunInline(spec Spec, start InlineBody) (*Container, error) {
	c, gpu, err := rt.create(spec)
	if err != nil {
		return nil, err
	}
	c.proc = rt.procs.SpawnInline("ctr/"+spec.Name, func(p *simproc.Process) {
		start(p, gpu)
	})
	rt.watch(c, gpu)
	return c, nil
}

// create reserves the container name and provisions its GPU client.
func (rt *Runtime) create(spec Spec) (*Container, *simgpu.Client, error) {
	if spec.Name == "" {
		return nil, nil, errors.New("container: empty name")
	}
	if _, dup := rt.containers[spec.Name]; dup {
		return nil, nil, fmt.Errorf("%w: %s", ErrDuplicate, spec.Name)
	}
	// Reserve the name; a GPU client that cannot be made releases it.
	c := &Container{name: spec.Name}
	rt.containers[spec.Name] = c

	var gpu *simgpu.Client
	if spec.Device != nil {
		var err error
		gpu, err = spec.Device.NewClient(simgpu.ClientConfig{
			Name:          "ctr/" + spec.Name,
			MemLimitBytes: spec.GPUMemLimit,
		})
		if err != nil {
			delete(rt.containers, spec.Name)
			return nil, nil, fmt.Errorf("container %s: gpu client: %w", spec.Name, err)
		}
	}
	c.gpu = gpu
	return c, gpu, nil
}

// watch installs the exit hook tying the GPU context's life to the process.
func (rt *Runtime) watch(c *Container, gpu *simgpu.Client) {
	c.proc.OnExit(func(err error) {
		// The process is gone: its CUDA context dies with it, aborting any
		// in-flight kernels and releasing device memory.
		if gpu != nil {
			gpu.Destroy()
		}
		c.exited = true
		c.exitErr = err
	})
}

// Remove deletes an exited container's record. Removing a live container
// fails; kill it first.
func (rt *Runtime) Remove(name string) error {
	c, ok := rt.containers[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if c.Alive() {
		return fmt.Errorf("container: %s is running", name)
	}
	delete(rt.containers, name)
	return nil
}

// Name reports the container name.
func (c *Container) Name() string { return c.name }

// Process returns the containerized process.
func (c *Container) Process() *simproc.Process { return c.proc }

// GPU returns the container's GPU client (nil for CPU-only containers).
// After exit the client is destroyed.
func (c *Container) GPU() *simgpu.Client { return c.gpu }

// Alive reports whether the containerized process is still live.
func (c *Container) Alive() bool { return c.proc.Alive() }

// ExitInfo reports termination state: exited=false means still running.
func (c *Container) ExitInfo() (exited bool, err error) {
	return c.exited, c.exitErr
}

// Stop delivers SIGTSTP to the containerized process.
func (c *Container) Stop() { c.proc.Signal(simproc.SigStop) }

// Cont delivers SIGCONT.
func (c *Container) Cont() { c.proc.Signal(simproc.SigCont) }

// Kill delivers SIGKILL. The GPU context teardown happens via the exit hook.
func (c *Container) Kill() { c.proc.Signal(simproc.SigKill) }
