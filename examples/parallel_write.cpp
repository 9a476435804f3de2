// Figure 4 of the paper, as runnable code.
//
// (a) WRITE: collectively create the dataset, define it, write a partitioned
//     array with ncmpi_put_vara_all, and close.
// (b) READ: collectively open, inquire, read with ncmpi_get_vars_all, close.
//
// Eight ranks cooperate on one netCDF file; afterwards the
// main thread verifies the result through the *serial* library, proving the
// format is the unchanged classic netCDF format.
#include <cstdio>
#include <numeric>
#include <vector>

#include "netcdf/dataset.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"

int main() {
  pfs::FileSystem fs;
  const int nprocs = 8;
  const std::uint64_t kZ = 16, kY = 8, kX = 8;

  simmpi::Run(nprocs, [&](simmpi::Comm& comm) {
    // ---- Figure 4(a): WRITE ----
    // 1. collectively create the dataset (note the communicator + info
    //    arguments added to the serial signature).
    auto ds =
        pnetcdf::Dataset::Create(comm, fs, "fig4.nc", simmpi::NullInfo())
            .value();
    // 2. collectively define dimensions, variables, attributes.
    const int zd = ds.DefDim("z", kZ).value();
    const int yd = ds.DefDim("y", kY).value();
    const int xd = ds.DefDim("x", kX).value();
    const int var =
        ds.DefVar("field", ncformat::NcType::kFloat, {zd, yd, xd}).value();
    (void)ds.PutAttText(pnetcdf::kGlobal, "history", "figure 4 example");
    (void)ds.EndDef();

    // 3. access the data collectively: a Z-partition, each rank owns a slab.
    const std::uint64_t zper = kZ / static_cast<std::uint64_t>(comm.size());
    const std::uint64_t start[] = {
        zper * static_cast<std::uint64_t>(comm.rank()), 0, 0};
    const std::uint64_t count[] = {zper, kY, kX};
    std::vector<float> slab(zper * kY * kX);
    std::iota(slab.begin(), slab.end(),
              static_cast<float>(comm.rank()) * 1000.0f);
    (void)ds.PutVaraAll<float>(var, start, count, slab);
    // 4. collectively close.
    (void)ds.Close();

    // ---- Figure 4(b): READ ----
    auto rd =
        pnetcdf::Dataset::Open(comm, fs, "fig4.nc", false, simmpi::NullInfo())
            .value();
    // Inquiry works on the local cached header: no communication.
    const int rv = rd.VarId("field").value();
    // Strided collective read: every other X element of this rank's slab.
    const std::uint64_t rstart[] = {
        zper * static_cast<std::uint64_t>(comm.rank()), 0, 0};
    const std::uint64_t rcount[] = {zper, kY, kX / 2};
    const std::uint64_t rstride[] = {1, 1, 2};
    std::vector<float> strided(zper * kY * kX / 2);
    (void)rd.GetVarsAll<float>(rv, rstart, rcount, rstride, strided);
    if (comm.rank() == 0)
      std::printf("rank 0 strided read begins with %.0f %.0f %.0f ...\n",
                  strided[0], strided[1], strided[2]);
    (void)rd.Close();
  });

  // Serial cross-check: the parallel file is ordinary classic netCDF.
  auto ds = netcdf::Dataset::Open(fs, "fig4.nc", false).value();
  std::vector<float> all(kZ * kY * kX);
  (void)ds.GetVar<float>(ds.VarId("field").value(), all);
  bool ok = true;
  const std::uint64_t zper = kZ / nprocs;
  for (std::uint64_t z = 0; z < kZ && ok; ++z)
    for (std::uint64_t i = 0; i < kY * kX && ok; ++i)
      ok = all[z * kY * kX + i] ==
           static_cast<float>(z / zper) * 1000.0f +
               static_cast<float>((z % zper) * kY * kX + i);
  std::printf("serial verification of the collectively written file: %s\n",
              ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}
