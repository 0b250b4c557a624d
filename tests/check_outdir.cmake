# Checks a `run_experiment --outdir DIR` tree: each named experiment left
# DIR/<name>.txt, and each figure's CSV starts with its column header.
#
#   cmake -DDIR=<outdir> -P check_outdir.cmake
foreach(name table2 fig1 fig2 fig3 fig4 fig5 report)
  if(NOT EXISTS "${DIR}/${name}.txt")
    message(FATAL_ERROR "missing ${DIR}/${name}.txt")
  endif()
endforeach()
foreach(entry
    "fig1=day,gflops,gflops_ma,utilization_ma"
    "fig2=nodes,walltime_s,jobs"
    "fig3=nodes,mean_mflops_per_node,max_mflops_per_node,jobs"
    "fig4=job_seq,job_mflops,moving_avg"
    "fig5=sys_user_fxu_ratio,mflops_per_node")
  string(FIND "${entry}" "=" eq)
  string(SUBSTRING "${entry}" 0 ${eq} fig)
  math(EXPR from "${eq} + 1")
  string(SUBSTRING "${entry}" ${from} -1 expected)
  file(STRINGS "${DIR}/${fig}.csv" header LIMIT_COUNT 1)
  if(NOT header STREQUAL expected)
    message(FATAL_ERROR "${fig}.csv header '${header}', expected '${expected}'")
  endif()
endforeach()
