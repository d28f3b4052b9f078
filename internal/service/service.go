// Package service implements a miniature version of Oracle's Services
// Infrastructure (paper §I, "Capacity Expansion Capability"): named services
// map to database roles, and INMEMORY population policies name a service to
// say where (primary, standby, or both) an object's column-store data lives.
package service

import (
	"fmt"
	"sync"
)

// Role is a database role a service can run on.
type Role uint8

const (
	// RolePrimary is the production (read-write) database.
	RolePrimary Role = 1 << iota
	// RoleStandby is the physical standby database.
	RoleStandby
)

func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "PRIMARY"
	case RoleStandby:
		return "STANDBY"
	case RolePrimary | RoleStandby:
		return "PRIMARY+STANDBY"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// Default service names, pre-registered in every Registry. These are the
// paper's "three services: Standby-only, Primary-only, and
// Primary-and-Standby".
const (
	PrimaryOnly       = "primary"
	StandbyOnly       = "standby"
	PrimaryAndStandby = "both"
)

// Registry maps service names to the roles they run on.
type Registry struct {
	mu sync.RWMutex
	m  map[string]Role
}

// NewRegistry returns a registry with the three default services.
func NewRegistry() *Registry {
	return &Registry{m: map[string]Role{
		PrimaryOnly:       RolePrimary,
		StandbyOnly:       RoleStandby,
		PrimaryAndStandby: RolePrimary | RoleStandby,
	}}
}

// Register adds or replaces a service.
func (r *Registry) Register(name string, roles Role) error {
	if name == "" {
		return fmt.Errorf("service: empty service name")
	}
	if roles == 0 {
		return fmt.Errorf("service: service %q has no roles", name)
	}
	r.mu.Lock()
	r.m[name] = roles
	r.mu.Unlock()
	return nil
}

// Unregister removes a service. Sessions already placed by a router keep
// running — placement checks eligibility at routing time only — but no new
// session routes to the service afterwards. Unregistering an unknown name is
// a no-op.
func (r *Registry) Unregister(name string) {
	r.mu.Lock()
	delete(r.m, name)
	r.mu.Unlock()
}

// RunsOn reports whether the named service runs on role. Unknown or empty
// service names run nowhere.
func (r *Registry) RunsOn(name string, role Role) bool {
	r.mu.RLock()
	roles, ok := r.m[name]
	r.mu.RUnlock()
	return ok && roles&role != 0
}

// Snapshot returns a copy of the full name → roles mapping. The broker uses
// it to carry custom service registrations across a role transition.
func (r *Registry) Snapshot() map[string]Role {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]Role, len(r.m))
	for name, roles := range r.m {
		out[name] = roles
	}
	return out
}

// Services returns the registered service names.
func (r *Registry) Services() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for name := range r.m {
		out = append(out, name)
	}
	return out
}
