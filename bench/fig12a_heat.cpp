// E3: Fig. 12a — 2D heat equation, grid sizes 128^2..512^2, comparing the
// accumulated max-reduction time of openuh vs pgi_like. The paper's CAPS
// column is absent from Fig. 12a because CAPS never converged (its error
// increased); our caps_like model computes correctly, so we print it with
// that footnote.
//
// Flags: --iters N (default 100), --sizes a,b,c (default 128,256,512),
//        --tol X (default 0 = run all iterations),
//        --json FILE / --trace FILE (structured record / event trace)
#include <iostream>
#include <sstream>

#include "apps/heat.hpp"
#include "obs/record.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

#include "util/main_guard.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace accred;
  const util::Cli cli(argc, argv);
  obs::Session obs(cli, "fig12a_heat");
  const int iters = static_cast<int>(cli.get_int("iters", 50));
  const double tol = cli.get_double("tol", 0.0);

  std::vector<std::int64_t> sizes;
  {
    std::stringstream ss(cli.get("sizes", "128,256,512"));
    for (std::string tok; std::getline(ss, tok, ',');) {
      sizes.push_back(std::stoll(tok));
    }
  }
  cli.reject_unknown();

  std::cout << "== Fig. 12a reproduction: 2D heat equation (max reduction) =="
            << "\niterations: " << iters << ", tolerance: " << tol << "\n\n";

  util::TextTable table;
  table.header({"grid", "compiler", "reduction ms", "update ms", "total ms",
                "final err", "converged"});
  for (std::int64_t n : sizes) {
    for (acc::CompilerId id :
         {acc::CompilerId::kOpenUH, acc::CompilerId::kPgiLike,
          acc::CompilerId::kCapsLike}) {
      apps::HeatOptions o;
      o.ni = n;
      o.nj = n;
      o.max_iterations = iters;
      o.tolerance = tol;
      o.compiler = id;
      const apps::HeatResult r = apps::run_heat(o);
      table.row({std::to_string(n) + "x" + std::to_string(n),
                 std::string(to_string(id)),
                 util::TextTable::num(r.reduction_device_ms),
                 util::TextTable::num(r.update_device_ms),
                 util::TextTable::num(r.total_device_ms),
                 util::TextTable::num(r.final_error, 6),
                 r.converged ? "yes" : "cap"});
      obs.record()
          .entry(std::to_string(n) + "x" + std::to_string(n) + "/" +
                 std::string(to_string(id)))
          .metric("reduction_ms", r.reduction_device_ms)
          .metric("update_ms", r.update_device_ms)
          .metric("total_ms", r.total_device_ms)
          .metric("iterations", r.iterations)
          .attr("converged", r.converged ? "yes" : "cap")
          .stats(r.reduction_stats);
    }
  }
  table.print(std::cout);
  std::cout << "\nnote: the paper's CAPS bar is missing from Fig. 12a "
               "because CAPS 3.4.0 never converged (temperature difference "
               "increased); our caps_like strategy model computes "
               "correctly, so its modeled time is shown for reference.\n";
  obs.record().meta("iters", static_cast<std::int64_t>(iters));
  obs.record().meta("tolerance", tol);
  return obs.finish() ? 0 : 1;
}

}  // namespace

// All benches, examples, and tools share one top-level exception guard:
// any escaping error prints a structured line and exits non-zero instead
// of crashing (util/main_guard.hpp).
int main(int argc, char** argv) {
  return accred::util::guarded_main([&] { return run(argc, argv); });
}
