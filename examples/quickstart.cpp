// Quickstart: the CPU-Free execution model in ~80 lines.
//
// Builds a 4-GPU virtual machine, describes a ring token-passing loop as an
// exec::Program and runs it under the CPU-Free plan: ONE persistent
// cooperative kernel per device (the only host involvement), after which the
// devices run the loop entirely on their own: device-initiated puts with
// signals, device-side waits, and an in-kernel time loop. At the end it
// prints how little the CPU did.
//
//   $ ./quickstart
//
// It takes no arguments (any argument exits 2) and exits 1 if the token
// did not make every round.
#include <cstdio>

#include "args.hpp"
#include "exec/policy.hpp"
#include "exec/program.hpp"
#include "vgpu/machine.hpp"
#include "vshmem/world.hpp"

using sim::Task;
using vgpu::BlockGroup;
using vgpu::KernelCtx;

int main(int argc, char** argv) {
  if (argc > 1) example::Usage{"quickstart", "(no arguments)"}.fail(argv[1]);
  // A virtual HGX node with 4 A100s, all-to-all NVLink.
  vgpu::Machine machine(vgpu::MachineSpec::hgx_a100(4));
  // NVSHMEM-like PGAS world: one PE per device, symmetric allocations.
  vshmem::World world(machine);

  constexpr int kRounds = 16;
  vshmem::Sym<double> token = world.alloc<double>(1, "token");
  auto signals = world.alloc_signals(1);
  token.on(0)[0] = 1.0;  // PE 0 holds the token initially

  // One persistent kernel per device: wait for the token, increment it,
  // pass it right. No CPU involvement after the launch. The ring is one
  // group per PE that orders itself by signals, so it needs no per-round
  // join.
  exec::Program ring{.world = &world,
                     .plan = {exec::LaunchPolicy::kPersistent,
                              exec::CommPolicy::kSignaledPut,
                              exec::SyncPolicy::kIterationFlags,
                              "quickstart_ring"}};
  ring.groups = [&world, &token, sig = signals.get()](
                    int pe, const exec::IterationJoin&) {
    auto body = [&world, &token, sig, pe](KernelCtx& k) -> Task {
      const int right = (pe + 1) % 4;
      for (int round = 0; round < kRounds; ++round) {
        const std::int64_t my_turn = round * 4 + pe + 1;
        if (!(round == 0 && pe == 0)) {
          // Wait until the left neighbour hands me the token.
          co_await world.signal_wait_until(k, *sig, 0, sim::Cmp::kGe, my_turn - 1);
        }
        token.on(pe)[0] += 1.0;
        // Pass it on: payload + signal in one device-initiated op.
        co_await world.putmem_signal_nbi(k, token, 0, 0, 1, *sig, 0, my_turn,
                                         vshmem::SignalOp::kSet, right);
      }
    };
    exec::ProgramGroups pg;
    pg.comm.push_back(BlockGroup{"ring", 1, std::move(body)});
    return pg;
  };
  exec::run_program(ring);

  const auto& tr = machine.trace();
  std::printf("simulated time: %.2f us\n", sim::to_usec(machine.engine().now()));
  // 4 PEs x kRounds increments, plus the initial 1.0, delivered back to PE 0
  // by PE 3's final put.
  std::printf("token value at PE 0: %.0f (expected %d)\n", token.on(0)[0],
              kRounds * 4 + 1);
  std::printf("host API time:   %8.2f us (one launch + one sync per device)\n",
              sim::to_usec(tr.union_length(sim::Cat::kHostApi)));
  std::printf("device sync time:%8.2f us\n",
              sim::to_usec(tr.union_length(sim::Cat::kSync)));
  std::printf("communication:   %8.2f us\n",
              sim::to_usec(tr.union_length(sim::Cat::kComm)));
  std::printf("\nThe CPU's entire job was %d kernel launches. Everything else "
              "happened on the devices.\n",
              machine.num_devices());
  return token.on(0)[0] == kRounds * 4 + 1 ? 0 : 1;
}
