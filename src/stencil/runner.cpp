#include "stencil/runner.hpp"

#include <cmath>
#include <cstddef>
#include <memory>
#include <tuple>

#include "sim/memo.hpp"
#include "stencil/slab.hpp"
#include "stencil/variants.hpp"
#include "vshmem/world.hpp"

namespace stencil {

std::shared_ptr<const std::vector<double>> jacobi2d_reference(
    const Jacobi2D& problem, int iterations) {
  // Jacobi2D's fields are its whole key: nx and ny.
  static sim::Memo<std::tuple<std::size_t, std::size_t, int>,
                   std::shared_ptr<const std::vector<double>>>
      memo;
  const std::size_t nx = problem.nx;
  const std::size_t ny = problem.ny;
  return memo.get({nx, ny, iterations}, [nx, ny, iterations] {
    Jacobi2D keyed;
    keyed.nx = nx;
    keyed.ny = ny;
    return std::make_shared<const std::vector<double>>(
        serial_reference(keyed, iterations));
  });
}

namespace {

template <class P>
RunOutput run_any(Variant v, const vgpu::MachineSpec& spec, P problem,
                  StencilConfig config) {
  vgpu::Machine machine(spec);
  machine.engine().set_observer(config.observer);
  vshmem::World world(machine);
  SlabStencil<P> stencil(world, problem, config);
  RunOutput out;
  out.result = run_variant(stencil, v);
  if (config.functional && config.compute_enabled) {
    const std::vector<double> got = stencil.gather(out.result.final_parity);
    const std::vector<double> ref = stencil.reference(config.iterations);
    double err = 0.0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      err = std::max(err, std::abs(got[i] - ref[i]));
    }
    out.max_abs_err = err;
    out.verified = err == 0.0;
  }
  return out;
}

}  // namespace

RunOutput run_jacobi2d(Variant v, const vgpu::MachineSpec& spec,
                       Jacobi2D problem, StencilConfig config) {
  return run_any(v, spec, problem, config);
}

RunOutput run_jacobi3d(Variant v, const vgpu::MachineSpec& spec,
                       Jacobi3D problem, StencilConfig config) {
  return run_any(v, spec, problem, config);
}

}  // namespace stencil
